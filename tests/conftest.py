from __future__ import annotations

import pytest
from hypothesis import settings

from sealkit.config import ServerConfig
from sealkit.sealing import prepare_trusted_server, seal_all
from sealkit.util import SimClock, make_rng

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# Small disks keep the randomized suites fast; geometry is irrelevant to the
# protocol properties under test.
SMALL = ServerConfig(host_sectors=192, vm_sectors=256)


def build_server(seed: int, config: ServerConfig | None = None):
    return prepare_trusted_server(config or SMALL, rng=make_rng(seed), clock=SimClock())


def build_sealed(seed: int, config: ServerConfig | None = None):
    """Prepared, imaged, sealed server: (host, vm, host_images, vm_images, bundle)."""
    host = build_server(seed, config)
    vm = host.nested_vm
    host_images = host.snapshot_image()
    vm_images = vm.snapshot_image()
    bundle = seal_all(host)
    return host, vm, host_images, vm_images, bundle


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture
def clock():
    return SimClock()
