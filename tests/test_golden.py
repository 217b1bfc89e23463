"""Golden outputs: fixed seeds must keep producing byte-identical artefacts.

Each value was measured once and pinned. A change that moves one of them has
changed behaviour (usually the order of RNG draws) and must say so.
"""

from __future__ import annotations

import hashlib
import json

from conftest import SMALL, build_server

from sealkit.cli import run_command
from sealkit.config import ServerConfig
from sealkit.machine import STAGES, save_images
from sealkit.scenarios import SCENARIOS, run_scenario
from sealkit.sealing import (
    default_plan,
    prepare_trusted_server,
    seal_all,
    seal_all_with_escrow,
    single_stage_host_plan,
)
from sealkit.services import (
    CredentialDirectory,
    ServiceFrontend,
    UpstreamResolver,
    attach_data_vault,
)
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
VM_ROOT_4096_90003 = (
    "25f95073570f95fe3d5dc1b858d8f51e3f0f1f077c9ea6038ab719845ee5c9f2"
    "533631aaa6f9171aba8b37256e7a70edb285b26fd7fdd8d0ca32886ad3dd6530"
)
SERVE_TRANSCRIPT_90004 = (
    "abf591108ee4ce53696863fa4ad38150473c6eff0e611bcf0d3284ddb5e96031"
    "10b99c933988b47e96c032fd18aa2ae366e98d77cdc398dfb2634ce3b808bf50"
)
VM_ROOT_SERVE_90004 = (
    "50abf7920c6d52b9a1d08785665b8359902f0a872c1b17613a8f2a3aaeec8317"
    "11d04187e18bd191862dabcfa0217cbb56af505e0266ecd6e5489b819d40c270"
)
# Scenario name -> the digest of its seed-0 and seed-1 reports: a new scenario
# adds its own pin and leaves the others as they are.
ATTACK_REPORTS_SMALL_SEEDS_0_1 = {
    "blank-account-listing": (
        "c6f7919759065b5aa1183d6fa43b9811a9e27db35682320ae4d6a878f24ad681"
        "1008d7023ef60dfb2dc345e431f854b15a71ef44115da6a0b0720897726ccfc2"
    ),
    "header-restore-dual": (
        "9ee627f454974ab4a47ca623ba8f7df0b804e14c8ea1e172f46525a0c61ea9a6"
        "1a77672b4f10ac1faafa772fbf4e0d1d7f0ec2855a1d4cccad5b740539fd6460"
    ),
    "header-restore-single": (
        "9069d2b102c158310fc14c6f1d124257821b5408288581cd12ae70dfad1183db"
        "aa426253a73fd8fe50b4570837616936cd7e73639adda56c18bf243b7f352f83"
    ),
    "leftover-ssh-rule": (
        "2104c032be59cddd844347ec0d1f4fc0a937bb4dc94c08bc7eee4904a8f2555f"
        "47db7fdbf68a3d48e8c5338da3e82503e080e70ce9be666a6bf81995354ac519"
    ),
    "leftover-user": (
        "e0e15f029ce0bbdebe07b5abeb118033b838fdb07831c87cfbd60adeb1711f20"
        "0692065100a422231fb25e45c801db3b27c555b221cdd24e7df96ce0797d0869"
    ),
    "skip-erase": (
        "82077f166484b2741201520664c10c3da0d3d41a8dd445c879484cba5da751c7"
        "73231ede05befed5d58bd9dc2ef34016189d21420e13fddb1b74ec9e7100fd8b"
    ),
    "tamper-binary": (
        "f03840654dc91e9a25f6ca6339132ec435c7c8975b6bc44c0068dc3510265e53"
        "252e54b0d9df2aaed72265e40b7f113db7d782eff27ab6bc417fc15d45e4429c"
    ),
    "tampered-ldap": (
        "94b26f2e1e5ce4d442b5789185df31719a03a34859184d5343bdfa75cc791efb"
        "137ca6dbfa02f73b6481f159dc933385b7cfa653b6215faea4bbb5cbbb9254d7"
    ),
    "theft-reboot": (
        "8c0b93af4105ba961c0b2c9accc3a9aae23ea39b37307a8c0e8a70010ef701db"
        "572a854c645be39aa72a63544432b2b4a801b6a72a0f786195dfd612fb2e2074"
    ),
}
PLANS_SMALL_AND_ALT = (
    "47fbe962b63d623c196570eb0a24341871aece94bd7f392b1ebfe1b9224a2155"
    "dd444936f1178423591bd8ef399274570e9e001549c4c96bb4bc5d6482f11fd2"
)
CLI_SEED1_VERIFY_JSON = (
    "be14aa576fd70c07cb23ae739c44146654c532e5008cc1859fe93fb3c1b1acf1"
    "ffeb86663fbf9abdf6296dcc87aa6f1a6c8ac018d7fe2e9e03209b2896f21469"
)
ESCROW_90002_INDEX = (
    "89a067c57df9401c660ff6d9cf9c3485ebefeee116d256bb03576446579a09e7"
    "25b3ee8771cbcaa27d78767b1c9673f52754184abb79262a24cb02d24396d314"
)


def test_small_seed_90001_bundle_digest():
    host = build_server(90001, SMALL)
    assert seal_all(host).index_digest() == SMALL_90001_INDEX


def test_plan_steps_small_and_alt_config():
    # Every step of both plans, stage by stage, for the default layout and one
    # with its own webroot, VM name, mail address and hash roots.
    alt = ServerConfig(webroot="/srv/pub", vm_name="tsvm2", mail_to="ops@example.net",
                       hash_roots=("/etc", "/usr/bin", "/srv"))
    rows = [
        [stage.kind, step.kind, step.command, step.args, step.critical]
        for config in (SMALL, alt)
        for plan in (default_plan(config), single_stage_host_plan(config))
        for stage in STAGES
        for step in plan[stage]
    ]
    digest = hashlib.sha3_512(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == PLANS_SMALL_AND_ALT


def test_cli_build_seal_seed_1_bundle_digest(tmp_path, capsys):
    argv = ["--workdir", str(tmp_path), "--seed", "1"]
    assert run_command(["build", *argv]) == 0
    capsys.readouterr()
    assert run_command(["seal", *argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bundle_index_digest"] == CLI_SEED1_INDEX
    # The verdict and the policy it was checked against; no workdir path in it.
    assert run_command(["verify", "--workdir", str(tmp_path), "--json"]) == 0
    verify_out = capsys.readouterr().out
    assert hashlib.sha3_512(verify_out.encode()).hexdigest() == CLI_SEED1_VERIFY_JSON


def test_data_vault_and_escrow_seed_90002():
    # The vault draws its key and nonces from the server's rng, after the
    # server's own draws: this is the only pinned path through the vault.
    rng = make_rng(90002)
    host = prepare_trusted_server(SMALL, rng=rng, clock=SimClock())
    vm = host.nested_vm
    attach_data_vault(vm, 16, {"/data/records.csv": b"id,value\n1,confidential\n"}, rng)
    vault = vm.extra_disks[-1]
    assert hashlib.sha3_512(b"".join(serialize_volume(vault))).hexdigest() == VAULT_90002
    assert hashlib.sha3_512(b"".join(serialize_volume(vm.root_volume))).hexdigest() == VM_ROOT_90002
    bundle, _ = seal_all_with_escrow(host, 2)
    assert bundle.index_digest() == ESCROW_90002_INDEX


def test_serve_geometry_vm_root_seed_90003():
    # 4096 VM sectors, as the serve benchmark runs: the installed tree fills 7
    # of them, so this pins the nonce stream across a long zero tail.
    host = prepare_trusted_server(ServerConfig(vm_sectors=4096), rng=make_rng(90003),
                                  clock=SimClock())
    root = host.nested_vm.root_volume
    assert hashlib.sha3_512(b"".join(serialize_volume(root))).hexdigest() == VM_ROOT_4096_90003


def test_saved_vm_root_file_seed_90003(tmp_path):
    # The file save_images writes holds the same bytes as the pinned container.
    host = prepare_trusted_server(ServerConfig(vm_sectors=4096), rng=make_rng(90003),
                                  clock=SimClock())
    save_images(host.nested_vm.snapshot_image(), tmp_path)
    digest = hashlib.sha3_512((tmp_path / "root.tsvol").read_bytes()).hexdigest()
    assert digest == VM_ROOT_4096_90003


def test_every_scenario_has_a_report_pin():
    assert sorted(ATTACK_REPORTS_SMALL_SEEDS_0_1) == sorted(SCENARIOS)


def test_attack_reports_seeds_0_1():
    # Each scenario's full reports, details text included: pins what the attack
    # observed and which verifier findings it printed.
    moved = []
    for name, pin in ATTACK_REPORTS_SMALL_SEEDS_0_1.items():
        reports = [run_scenario(name, seed, SMALL).to_dict() for seed in (0, 1)]
        if hashlib.sha3_512(json.dumps(reports, sort_keys=True).encode()).hexdigest() != pin:
            moved.append(name)
    assert moved == []


def serve_script(rng, users: dict[str, str]) -> list[str]:
    """Seeded request lines over every verb, with bad passwords and bad usage."""
    lines = []
    for i in range(300):
        roll = rng.random()
        user = rng.choice(sorted(users))
        password = users[user] if rng.random() < 0.8 else "wrong"
        if i in (0, 120, 220) or roll < 0.03:
            lines.append("SYNC")
        elif roll < 0.45:
            tail = f" {user} {password}" if rng.random() < 0.9 else ""
            lines.append(f"SUBMIT m{rng.randrange(60):02d} {rng.randrange(10**6)}{tail}")
        elif roll < 0.55:
            lines.append("PUBLISH")
        elif roll < 0.8:
            lines.append(f"AUTH {user} {password}")
        elif roll < 0.88:
            lines.append(f"RESOLVE {rng.choice(['a.example', 'b.example', 'nope.test'])}")
        elif roll < 0.96:
            lines.append(f"MAIL nick{i}|comment {rng.randrange(1000)}|")
        else:
            lines.append(rng.choice(["SUBMIT x y", "AUTH alice", "VAULTKEY zz", "NOPE", ""]))
    return lines


def test_serve_transcript_seed_90004():
    # Every response of a fixed request script, and the VM root it leaves: pins
    # the service surface and the write-through's nonce stream together.
    rng = make_rng(90004)
    host = build_server(90004)
    vm = host.nested_vm
    seal_all(host)
    users = {"alice": "wonder", "bob": "builder", "carol": "singer"}
    primary = CredentialDirectory()
    for user, password in users.items():
        primary.add_user(user, password, rng)
    frontend = ServiceFrontend(vm, primary_directory=primary, upstream=UpstreamResolver(
        table={"a.example": "192.0.2.1", "b.example": "192.0.2.2"}))
    responses = []
    for i, line in enumerate(serve_script(rng, users)):
        if i == 100:
            primary.add_user("dave", "diver", rng)
            users["dave"] = "diver"
        if i == 200:
            primary.remove_user("bob")
        responses.append(frontend.handle_line(line))
    transcript = "\n".join(responses).encode()
    assert hashlib.sha3_512(transcript).hexdigest() == SERVE_TRANSCRIPT_90004
    assert hashlib.sha3_512(b"".join(serialize_volume(vm.root_volume))).hexdigest() == VM_ROOT_SERVE_90004
