"""sealkit: executable model and audit toolkit for self-sealing encrypted servers.

The toolkit simulates a host/VM pair whose disks are LUKS-style encrypted
volumes, runs the dual-stage sealing protocol that renders both machines
cryptographically inaccessible, verifies published sealed-state evidence
against pre-seal disk images, and exercises the privacy services and attack
scenarios that motivate the design.
"""

__version__ = "0.1.0"

from .config import ServerConfig, load_config, parse_config
from .machine import DiskImagePair, Machine
from .sealing import (
    PublishedBundle,
    SealingPlan,
    default_plan,
    prepare_trusted_server,
    publish_bundle,
    seal_all,
    seal_all_with_escrow,
    seal_host,
    seal_vm,
    server_from_images,
)
from .verifier import Verdict, default_policy, verify_seal

__all__ = [
    "DiskImagePair",
    "Machine",
    "PublishedBundle",
    "SealingPlan",
    "ServerConfig",
    "Verdict",
    "default_plan",
    "default_policy",
    "load_config",
    "parse_config",
    "prepare_trusted_server",
    "publish_bundle",
    "seal_all",
    "seal_all_with_escrow",
    "seal_host",
    "seal_vm",
    "server_from_images",
    "verify_seal",
]
