"""Golden outputs: fixed seeds must keep producing byte-identical artefacts.

Each value was measured once and pinned. A change that moves one of them has
changed behaviour (usually the order of RNG draws) and must say so.
"""

from __future__ import annotations

import hashlib
import json

from conftest import SMALL, build_server

from sealkit.cli import run_command
from sealkit.sealing import prepare_trusted_server, seal_all, seal_all_with_escrow
from sealkit.services import attach_data_vault
from sealkit.util import SimClock, make_rng
from sealkit.volume import serialize_volume

SMALL_90001_INDEX = (
    "b57b34c32fbf700c5af67603a59e57d463d0077f11f620c9ec482c8c4b012106"
    "3c49fb9f9592194df40ebd32e3ac8403dd2645164eb0ac050c68552f53a6f2d1"
)
CLI_SEED1_INDEX = (
    "3083a682bbc53e7de4d5af21789cf34abc40d30aac0317ec584d49dc35e7edb2"
    "cdedf20221ede8f59978dcd46393d3d328ec15924e50f2baff049ee08ae713be"
)
VAULT_90002 = (
    "59c80f95576fe31e224e4e0453e5fa583210d77a1fbc8b81e103b77c38ae1ab6"
    "8ce126861955f70ca8fc7fe40b0bd1b55ce56e9836fc4f030dd7b16c5d1e232a"
)
VM_ROOT_90002 = (
    "c8b631a308c63c0a84eb64c1c215a1c5c664c46c13287687f4435a7464a7deb2"
    "42806f44d05ae7b1a51c703597f07e181a1703b96df3aea0f77aa965cfb8f497"
)
ESCROW_90002_INDEX = (
    "89a067c57df9401c660ff6d9cf9c3485ebefeee116d256bb03576446579a09e7"
    "25b3ee8771cbcaa27d78767b1c9673f52754184abb79262a24cb02d24396d314"
)


def test_small_seed_90001_bundle_digest():
    host = build_server(90001, SMALL)
    assert seal_all(host).index_digest() == SMALL_90001_INDEX


def test_cli_build_seal_seed_1_bundle_digest(tmp_path, capsys):
    argv = ["--workdir", str(tmp_path), "--seed", "1"]
    assert run_command(["build", *argv]) == 0
    capsys.readouterr()
    assert run_command(["seal", *argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bundle_index_digest"] == CLI_SEED1_INDEX


def test_data_vault_and_escrow_seed_90002():
    # The vault draws its key and nonces from the server's rng, after the
    # server's own draws: this is the only pinned path through the vault.
    rng = make_rng(90002)
    host = prepare_trusted_server(SMALL, rng=rng, clock=SimClock())
    vm = host.nested_vm
    attach_data_vault(vm, 16, {"/data/records.csv": b"id,value\n1,confidential\n"}, rng)
    vault = vm.extra_disks[-1]
    assert hashlib.sha3_512(serialize_volume(vault)).hexdigest() == VAULT_90002
    assert hashlib.sha3_512(serialize_volume(vm.root_volume)).hexdigest() == VM_ROOT_90002
    bundle, _ = seal_all_with_escrow(host, 2)
    assert bundle.index_digest() == ESCROW_90002_INDEX
