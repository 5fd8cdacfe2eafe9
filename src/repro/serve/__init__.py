"""Multi-tenant asyncio serving layer (see :mod:`repro.serve.server`).

Hosts many isolated per-tenant :class:`~repro.engine.ActiveDatabase`
instances behind a newline-delimited JSON session protocol: sessions
stream transactions in, firing/IC-veto notifications stream out, and
admitted work drains through the engine's WAL group commit.
"""

from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    compile_statements,
    decode_frame,
    encode_frame,
)
from repro.serve.server import ReproServer, Session
from repro.serve.tenant import (
    StockProfile,
    Tenant,
    TenantProfile,
    TenantRegistry,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_FRAME",
    "PROTOCOL_VERSION",
    "ReproServer",
    "Session",
    "StockProfile",
    "Tenant",
    "TenantProfile",
    "TenantRegistry",
    "compile_statements",
    "decode_frame",
    "encode_frame",
]
