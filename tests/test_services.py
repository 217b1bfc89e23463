from __future__ import annotations

import copy
import hashlib
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SMALL, build_sealed, build_server
from test_golden import serve_script

from sealkit import volume as vol
from sealkit.config import ServerConfig
from sealkit.machine import LDAP_DUMP_NAME, LDAP_REPLICA_PATH, Machine, read_volume_tree
from sealkit.manifest import compute_manifest, render_manifest
from sealkit.sealing import default_plan
from sealkit.services import (
    CredentialDirectory,
    MillionairesState,
    NotSealed,
    ReadOnlyDirectory,
    ServiceFrontend,
    UpstreamResolver,
    WrongKey,
    _verifier,
    attach_data_vault,
    millionaires_publish,
    millionaires_submit,
    vault_attach,
)
from sealkit.tree import FileTree
from sealkit.util import make_rng
from sealkit.volume import DiskFull


def ranking_oracle(pairs, descending=True):
    """Independent brute-force sort: repeatedly select the extreme value,
    breaking ties by earliest arrival."""
    remaining = [(name, assets, seq) for seq, (name, assets) in enumerate(pairs)]
    out = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            better = cand[1] > best[1] if descending else cand[1] < best[1]
            if better or (cand[1] == best[1] and cand[2] < best[2]):
                best = cand
        out.append(best[0])
        remaining.remove(best)
    return out


NOT_SEALED = "ERR NotSealed: service requires a sealed server with the web service up"


def sealed_frontend(seed, **kwargs):
    host, vm, host_images, vm_images, bundle = build_sealed(seed)
    return vm, ServiceFrontend(vm, **kwargs)


# -- millionaires: pure core -------------------------------------------------------


def test_publish_matches_brute_force_oracle():
    state = MillionairesState()
    for name, assets in (("Alice", 5), ("Bob", 3), ("Carol", 7)):
        state = millionaires_submit(state, name, assets)
    assert millionaires_publish(state, True) == ["Carol", "Alice", "Bob"]
    assert millionaires_publish(state, True) == ranking_oracle(
        [("Alice", 5), ("Bob", 3), ("Carol", 7)]
    )


def test_publish_empty_state():
    assert millionaires_publish(MillionairesState(), True) == []


def test_publish_breaks_ties_by_arrival():
    state = MillionairesState()
    state = millionaires_submit(state, "X", 4)
    state = millionaires_submit(state, "Y", 4)
    assert millionaires_publish(state, True) == ["X", "Y"]


def test_publish_ascending_flag():
    state = MillionairesState()
    for name, assets in (("A", 1), ("B", 9), ("C", 5)):
        state = millionaires_submit(state, name, assets)
    assert millionaires_publish(state, descending=False) == ["A", "C", "B"]


def test_submissions_keep_arrival_order():
    state = MillionairesState()
    state = millionaires_submit(state, "A", 5)
    state = millionaires_submit(state, "B", 3)
    assert [(s.name, s.assets, s.sequence) for s in state] == [
        ("A", 5, 0), ("B", 3, 1),
    ]


def test_publish_never_discloses_values():
    rng = make_rng(88)
    for _ in range(50):
        state = MillionairesState()
        values = []
        for i in range(rng.randint(1, 12)):
            value = rng.randint(10, 10**9)
            values.append(value)
            state = millionaires_submit(state, f"person-{chr(65 + i)}", value)
        published = "\n".join(millionaires_publish(state, True))
        for value in values:
            assert str(value) not in published


# -- millionaires: sealed frontend ----------------------------------------------------


def test_submit_requires_sealed_server():
    host = build_server(80)
    vm = host.nested_vm
    vm.boot()  # running but unsealed
    frontend = ServiceFrontend(vm)
    assert frontend.handle_line("SUBMIT Early 1") == NOT_SEALED


def test_submit_and_publish_on_sealed_server():
    vm, frontend = sealed_frontend(81)
    assert frontend.handle_line("SUBMIT Alice 500") == "OK 0"
    assert frontend.handle_line("SUBMIT Bob 900") == "OK 1"
    assert frontend.handle_line("PUBLISH") == "OK Bob Alice"
    ranking_file = vm.ram.tree.read_text(f"{vm.config.webroot}/ranking.txt")
    assert ranking_file == "Bob\nAlice\n"


def test_submit_with_auth_enabled():
    rng = make_rng(5)
    primary = CredentialDirectory()
    primary.add_user("alice", "wonder", rng)
    vm, frontend = sealed_frontend(82, primary_directory=primary)
    refused = "ERR AuthRequired: submission requires valid directory credentials"
    assert frontend.handle_line("SUBMIT Anon 10") == refused
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("SUBMIT Alice 10 alice wonder") == "OK 0"
    assert frontend.handle_line("SUBMIT Mallory 10 alice wrong") == refused


# -- maildrop -----------------------------------------------------------------------


def manifest_of(vm):
    view = vm.ram.tree.mount("/boot", vm.boot_partition)
    return render_manifest(compute_manifest(view, vm.config.root_specs()))


@pytest.mark.parametrize("line, response", [
    ("MAIL nick|something to report", "OK sent"),
    ("AUTH alice wonder", "OK accept"),
    ("AUTH alice wrong", "OK reject"),
    ("RESOLVE example.org", "OK 93.184.216.34"),
], ids=["mail", "auth-good", "auth-bad", "resolve"])
def test_read_requests_leave_persistent_state_unchanged(line, response, monkeypatch):
    primary = CredentialDirectory()
    primary.add_user("alice", "wonder", make_rng(83))
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    vm, frontend = sealed_frontend(83, primary_directory=primary, upstream=upstream)
    calls = Counter()
    for name in ("read_sector", "write_sector"):
        def spy(*args, name=name, real=getattr(vol, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(vol, name, spy)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert calls["write_sector"] > 0  # the spies see the write-through
    calls.clear()
    before = manifest_of(vm)
    content, sectors = vm.ram.content, list(vm.root_volume.sectors)
    outbox = len(vm.ram.mailer)

    assert frontend.handle_line(line) == response
    assert manifest_of(vm) == before  # manifest-equality oracle
    assert vm.ram.content == content
    assert len(vm.root_volume.sectors) == len(sectors)
    assert all(a is b for a, b in zip(vm.root_volume.sectors, sectors))
    assert calls == Counter()  # no read_sector, no write_sector
    assert len(vm.ram.mailer) == outbox + line.startswith("MAIL")


def test_maildrop_includes_return_address_when_given():
    vm, frontend = sealed_frontend(84)
    assert frontend.handle_line("MAIL nick|hello|me@example.net") == "OK sent"
    message = vm.ram.mailer[-1]
    assert message.return_address == "me@example.net"
    assert "me@example.net" in message.body


def test_maildrop_anonymous_has_no_sender_identity():
    vm, frontend = sealed_frontend(85)
    assert frontend.handle_line("MAIL nick|hello") == "OK sent"
    message = vm.ram.mailer[-1]
    assert message.return_address is None
    assert "return address" not in message.body


def test_maildrop_requires_sealed_server():
    host = build_server(86)
    vm = host.nested_vm
    vm.boot()
    assert ServiceFrontend(vm).handle_line("MAIL n|c") == NOT_SEALED
    assert vm.ram.mailer == []


# -- credential replication -------------------------------------------------------------


def test_sync_replicates_and_publishes_dump():
    rng = make_rng(6)
    primary = CredentialDirectory()
    for user in ("mallory", "carol", "alice"):
        primary.add_user(user, f"{user}-pw", rng)
    vm, frontend = sealed_frontend(87, primary_directory=primary)

    dump_path = f"{vm.config.webroot}/ldap.txt"
    before = vm.ram.tree.read_file(dump_path)
    assert frontend.handle_line("AUTH carol carol-pw") == "OK reject"
    stamp = copy.copy(vm.clock).stamp()  # the one stamp the SYNC draws
    assert frontend.handle_line("SYNC") == "OK 3"
    assert frontend.handle_line("AUTH carol carol-pw") == "OK accept"
    after = vm.ram.tree.read_file(dump_path)
    assert after == before + f"{stamp}\nalice\ncarol\nmallory\n".encode()


def test_an_unchanged_publish_or_sync_commits_once(monkeypatch):
    rng = make_rng(62)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    vm, frontend = sealed_frontend(85, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("SUBMIT Alice 5 alice pw") == "OK 0"
    assert frontend.handle_line("PUBLISH") == "OK Alice"
    calls = []
    for owner, name in ((FileTree, "encode"), (vol, "write_image"), (vol, "write_sector")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    assert frontend.handle_line("PUBLISH") == "OK Alice"
    assert calls == ["encode", "write_image"]  # one commit, and no sector differs
    calls.clear()
    replica = vm.ram.tree.node(LDAP_REPLICA_PATH)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert calls[:2] == ["encode", "write_image"]  # one commit: the dump's append alone
    assert set(calls[2:]) == {"write_sector"}
    assert vm.ram.tree.node(LDAP_REPLICA_PATH) is replica
    assert read_volume_tree(vm.ram.handle)[0].encode() == vm.ram.tree.encode()


def test_a_submit_rewrites_about_as_many_sectors_late_in_a_session_as_early(monkeypatch):
    # 16 directory users and 20 SYNCs over 1000 requests on the serve geometry:
    # the dumps the SYNCs append must not make each later SUBMIT rewrite more.
    rng = make_rng(63)
    users = {f"user{k:02d}": f"pw{k:02d}" for k in range(16)}
    primary = CredentialDirectory.from_users(tuple(users.items()), rng)
    host, vm, *_ = build_sealed(84, ServerConfig(vm_sectors=4096))
    frontend = ServiceFrontend(vm, primary_directory=primary)
    written = []
    real_write_sector = vol.write_sector
    monkeypatch.setattr(vol, "write_sector",
                        lambda h, i, data: written.append(i) or real_write_sector(h, i, data))
    per_submit = []
    for i in range(1000):
        if i % 50 == 0:
            assert frontend.handle_line("SYNC") == "OK 16"
        elif rng.random() < 0.5:
            user = rng.choice(sorted(users))
            start = len(written)
            line = f"SUBMIT m{rng.randrange(500):03d} {rng.randrange(10**9)} {user} {users[user]}"
            assert frontend.handle_line(line).startswith("OK ")
            per_submit.append(len(written) - start)
        else:
            user = rng.choice(sorted(users))
            assert frontend.handle_line(f"AUTH {user} {users[user]}") == "OK accept"
    assert len(per_submit) > 400
    assert per_submit[-1] - per_submit[0] <= 12


# purge_ssh commits after removing sshd and again after /etc/ssh. One commit
# per stage moves SMALL_90001_INDEX, so it waits for the re-pin that the key
# material's rework brings (ROADMAP items 12 and 20).
COMMITS_TWICE = "purge_ssh"


def test_each_sealing_step_and_each_request_commits_at_most_once(monkeypatch):
    commits = [0]  # write_image calls with a previous image: one count per open step or request
    real_write_image = vol.write_image

    def write_image(handle, image, old=None):
        commits[-1] += old is not None
        real_write_image(handle, image, old)

    real_exec_step = Machine.exec_step
    per_step = []

    def exec_step(machine, step):
        commits.append(0)
        record = real_exec_step(machine, step)
        per_step.append((step.kind, commits.pop()))
        return record

    monkeypatch.setattr(vol, "write_image", write_image)
    monkeypatch.setattr(Machine, "exec_step", exec_step)
    rng = make_rng(90004)
    users = {"alice": "wonder", "bob": "builder", "carol": "singer"}
    primary = CredentialDirectory.from_users(tuple(users.items()), rng)
    vm, frontend = sealed_frontend(90004, primary_directory=primary, upstream=UpstreamResolver(
        table={"a.example": "192.0.2.1", "b.example": "192.0.2.2"}))
    assert len(per_step) == sum(len(steps) for steps in default_plan(vm.config).values())
    assert [n for kind, n in per_step if kind == COMMITS_TWICE] == [2, 2]  # one per stage
    assert max(n for kind, n in per_step if kind != COMMITS_TWICE) == 1

    per_verb = {}
    for i, line in enumerate(serve_script(rng, users)):
        if i == 100:
            primary.add_user("dave", "diver", rng)
            users["dave"] = "diver"
        commits.append(0)
        frontend.handle_line(line)
        verb = line.split()[0] if line else ""
        per_verb[verb] = max(per_verb.get(verb, 0), commits.pop())
    assert per_verb["SYNC"] == per_verb["SUBMIT"] == per_verb["PUBLISH"] == 1
    assert max(per_verb.values()) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_sync_that_does_not_fit_changes_neither_the_replica_nor_the_dump(seed):
    primary = CredentialDirectory.from_users((("alice", "wonder"),), make_rng(seed))
    _, vm, *_ = build_sealed(seed, ServerConfig(host_sectors=192, vm_sectors=512))
    frontend = ServiceFrontend(vm, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    capacity = vm.root_volume.sector_count * vol.SECTOR_BYTES
    vm.write_file("/srv/filler", b"")
    vm.write_file("/srv/filler", bytes(capacity - len(vm.ram.tree.encode()) - 200))
    assert capacity - len(vm.ram.tree.encode()) == 200
    primary.add_user("bob", "builder", make_rng(seed))
    replica_alone = vm.ram.tree.copy()
    replica_alone.write_file(LDAP_REPLICA_PATH, primary.render().encode())
    assert len(replica_alone.encode()) <= capacity  # bob's replica line fits, his dump does not

    dump_path = f"{vm.config.webroot}/{LDAP_DUMP_NAME}"
    replica, dump = vm.ram.tree.read_file(LDAP_REPLICA_PATH), vm.ram.tree.read_file(dump_path)
    sectors = list(vm.root_volume.sectors)
    assert frontend.handle_line("SYNC").startswith("ERR DiskFull: ")
    assert vm.ram.tree.read_file(LDAP_REPLICA_PATH) == replica
    assert vm.ram.tree.read_file(dump_path) == dump
    assert vm.root_volume.sectors == sectors
    assert frontend.handle_line("AUTH bob builder") == "OK reject"
    assert frontend.handle_line("AUTH alice wonder") == "OK accept"


def test_sync_unconfigured():
    vm, frontend = sealed_frontend(88)
    assert frontend.handle_line("SYNC") == (
        "ERR ReplicationUnconfigured: no primary directory was configured at prepare time")


def test_sealed_side_writes_are_rejected():
    rng = make_rng(7)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw", rng)
    replica = CredentialDirectory.parse(primary.render())
    with pytest.raises(ReadOnlyDirectory):
        replica.add_user("mallory", "evil", rng)
    with pytest.raises(ReadOnlyDirectory):
        replica.remove_user("carol")


def test_replication_is_one_way():
    rng = make_rng(8)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw", rng)
    snapshot = primary.render()
    vm, frontend = sealed_frontend(89, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH carol pw") == "OK accept"
    assert frontend.handle_line("SUBMIT Carol 3 carol pw") == "OK 0"
    assert primary.render() == snapshot  # untouched by sealed-side activity


def test_user_removed_on_primary_rejected_after_sync():
    rng = make_rng(9)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw", rng)
    vm, frontend = sealed_frontend(90, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH carol pw") == "OK accept"
    primary.remove_user("carol")
    assert frontend.handle_line("SYNC") == "OK 0"
    assert frontend.handle_line("AUTH carol pw") == "OK reject"


def test_authenticate_pure():
    rng = make_rng(10)
    directory = CredentialDirectory()
    directory.add_user("u", "right", rng)
    directory.add_user("v", "other", rng)
    replica = CredentialDirectory.parse(directory.render())
    assert replica.render() == directory.render()
    lines = replica.render().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert re.fullmatch(r"[uv]:[0-9a-f]{32}:[0-9a-f]{128}", line)
    for d in (directory, replica):
        assert d.check("u", "right")
        assert d.check("v", "other")
        assert not d.check("u", "wrong")
        assert not d.check("u", "other")
        assert not d.check("ghost", "right")


# -- data vault ---------------------------------------------------------------------


def test_vault_attach_round_trip():
    host = build_server(91)
    vm = host.nested_vm
    rng = make_rng(11)
    key = attach_data_vault(vm, 16, {"/data/genome.txt": b"ACGT" * 100}, rng)
    from sealkit.sealing import seal_all

    seal_all(host)
    handle = vault_attach(vm, key.data)
    tree, _ = read_volume_tree(handle)
    assert tree.read_file("/data/genome.txt") == b"ACGT" * 100


def test_vault_larger_than_its_disk_raises_disk_full():
    host = build_server(95)
    vm = host.nested_vm
    with pytest.raises(DiskFull):
        attach_data_vault(vm, 2, {"/data/big.bin": b"x" * 5000}, make_rng(15))
    assert vm.extra_disks == []


def test_vault_requires_sealed_server():
    host = build_server(92)
    vm = host.nested_vm
    key = attach_data_vault(vm, 8, {"/d": b"x"}, make_rng(12))
    vm.boot()
    with pytest.raises(NotSealed):
        vault_attach(vm, key.data)


def test_vault_wrong_key_leaves_vault_untouched():
    host = build_server(93)
    vm = host.nested_vm
    attach_data_vault(vm, 8, {"/d": b"x"}, make_rng(13))
    from sealkit.sealing import seal_all

    seal_all(host)
    with pytest.raises(WrongKey):
        vault_attach(vm, b"\x00" * 512)
    assert vm.ram.vault_handles == []


def test_vault_key_must_be_reuploaded_after_power_loss():
    host = build_server(94)
    vm = host.nested_vm
    key = attach_data_vault(vm, 8, {"/d": b"x"}, make_rng(14))
    from sealkit.sealing import seal_all

    seal_all(host)
    handle = vault_attach(vm, key.data)
    host.power_off()
    assert handle.cipher is None and handle.key is None
    # the server itself is sealed: it cannot come back, so neither can the vault
    from sealkit.machine import SealedAndCold

    with pytest.raises(SealedAndCold):
        vm.boot()


# -- dns proxy -----------------------------------------------------------------------


def test_proxy_hides_client_address():
    """The upstream is only ever asked from the server's own address."""
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    vm, frontend = sealed_frontend(102, upstream=upstream)
    assert frontend.handle_line("RESOLVE example.org") == "OK 93.184.216.34"
    assert frontend.handle_line("RESOLVE example.org") == "OK 93.184.216.34"
    assert upstream.query_log == [(vm.config.server_address, "example.org")] * 2


def test_proxy_unknown_domain():
    upstream = UpstreamResolver(table={})
    _, frontend = sealed_frontend(103, upstream=upstream)
    assert frontend.handle_line("RESOLVE nonexistent.test") == (
        "ERR Unresolvable: nonexistent.test")
    assert upstream.query_log == [(frontend.machine.config.server_address, "nonexistent.test")]


# -- line protocol ---------------------------------------------------------------------


def test_line_protocol_round_trip():
    rng = make_rng(15)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    vm, frontend = sealed_frontend(
        95, primary_directory=None, upstream=upstream,
    )
    assert frontend.handle_line("SUBMIT Alice 500") == "OK 0"
    assert frontend.handle_line("SUBMIT Bob 900") == "OK 1"
    assert frontend.handle_line("PUBLISH") == "OK Bob Alice"
    assert frontend.handle_line("MAIL nick|hello world|me@x.org") == "OK sent"
    assert frontend.handle_line("RESOLVE example.org") == "OK 93.184.216.34"
    assert frontend.handle_line("RESOLVE nope.test").startswith("ERR Unresolvable")
    assert frontend.handle_line("NONSENSE").startswith("ERR usage")
    assert frontend.handle_line("SUBMIT too few").startswith("ERR usage")


def test_line_protocol_auth():
    rng = make_rng(16)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    vm, frontend = sealed_frontend(96, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH alice pw") == "OK accept"
    assert frontend.handle_line("AUTH alice bad") == "OK reject"
    assert frontend.handle_line("SUBMIT Eve 5").startswith("ERR AuthRequired")
    assert frontend.handle_line("SUBMIT Alice 5 alice pw") == "OK 0"


@pytest.mark.parametrize("sealed", [False, True], ids=["unbooted", "sealed-then-off"])
def test_every_verb_on_a_powered_off_vm_answers_err(sealed):
    host = build_sealed(17)[0] if sealed else build_server(17)
    host.power_off()
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", make_rng(17))
    frontend = ServiceFrontend(host.nested_vm, primary_directory=primary,
                               upstream=UpstreamResolver(table={"example.org": "93.184.216.34"}))
    for line in ("SUBMIT Alice 5 alice pw", "PUBLISH", "MAIL nick|hello|", "AUTH alice pw",
                 "SYNC", "VAULTKEY 00ff", "RESOLVE example.org"):
        assert frontend.handle_line(line).startswith("ERR NotSealed: "), line


def test_frontend_reads_its_settings_from_the_machine_config():
    config = replace(SMALL, mail_to="desk@example.net", server_address="198.51.100.7")
    _, vm, *_ = build_sealed(101, config)
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    frontend = ServiceFrontend(vm, upstream=upstream)
    assert frontend.handle_line("MAIL nick|hello") == "OK sent"
    assert vm.ram.mailer[-1].to == "desk@example.net"
    assert frontend.handle_line("RESOLVE example.org") == "OK 93.184.216.34"
    assert upstream.query_log == [("198.51.100.7", "example.org")]
    for line in ("SUBMIT Alice 500", "SUBMIT Bob 900", "SUBMIT Carol 100"):
        frontend.handle_line(line)
    assert frontend.handle_line("PUBLISH") == "OK Bob Alice Carol"


# -- parsed state follows the stored files --------------------------------------------


def test_publish_follows_a_table_written_by_another_path():
    vm, frontend = sealed_frontend(97)
    assert frontend.handle_line("SUBMIT Alice 5") == "OK 0"
    assert frontend.handle_line("PUBLISH") == "OK Alice"
    vm.write_file(ServiceFrontend.TABLE_PATH, b"Zed\t9\t0\nAlice\t5\t1\n")
    assert frontend.handle_line("PUBLISH") == "OK Zed Alice"
    assert frontend.handle_line("SUBMIT Bob 7") == "OK 2"
    assert frontend.handle_line("PUBLISH") == "OK Zed Bob Alice"


def test_unterminated_table_still_parses_after_submit():
    vm, frontend = sealed_frontend(98)
    vm.write_file(ServiceFrontend.TABLE_PATH, b"Alice\t5\t0")
    assert frontend.handle_line("SUBMIT Bob 9") == "OK 1"
    assert vm.ram.tree.read_file(ServiceFrontend.TABLE_PATH) == b"Alice\t5\t0\nBob\t9\t1\n"
    assert frontend.handle_line("PUBLISH") == "OK Bob Alice"
    assert ServiceFrontend(vm).handle_line("PUBLISH") == "OK Bob Alice"


def test_ranking_survives_power_cycle_with_a_fresh_frontend():
    from sealkit.escrow import apply_wrapped_key_record, reconstruct
    from sealkit.sealing import seal_all_with_escrow

    host = build_server(99)
    vm = host.nested_vm
    _, shares = seal_all_with_escrow(host, 2)
    frontend = ServiceFrontend(vm)
    for line in ("SUBMIT Alice 5", "SUBMIT Bob 9", "SUBMIT Carol 7"):
        frontend.handle_line(line)
    before = frontend.handle_line("PUBLISH")
    host.power_off()
    apply_wrapped_key_record(vm.root_volume, reconstruct(shares))
    vm.boot()
    assert before == "OK Bob Carol Alice"
    assert ServiceFrontend(vm).handle_line("PUBLISH") == before
    assert frontend.handle_line("PUBLISH") == before  # the old frontend re-parses too


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_key_and_nonce_pair_repeats_over_a_sealed_session(seed, monkeypatch):
    """Every AES-GCM encryption of a run, from build through sealing to 200
    served SUBMITs with a SYNC before every 20, uses a (key, nonce) pair of its own."""
    from sealkit.sealing import seal_all_with_escrow

    pairs = []
    real_cipher = vol.AESGCM

    class RecordingCipher:
        def __init__(self, key):
            self.key, self.cipher = key, real_cipher(key)

        def encrypt(self, nonce, data, aad):
            pairs.append((self.key, nonce))
            return self.cipher.encrypt(nonce, data, aad)

        def decrypt(self, nonce, data, aad):
            return self.cipher.decrypt(nonce, data, aad)

    monkeypatch.setattr(vol, "AESGCM", RecordingCipher)
    host = build_server(seed)
    seal_all_with_escrow(host, 2)
    primary = CredentialDirectory()
    primary.add_user("alice", "wonder", make_rng(seed))
    frontend = ServiceFrontend(host.nested_vm, primary_directory=primary)
    for k in range(200):
        if k % 20 == 0:
            assert frontend.handle_line("SYNC") == "OK 1"
        assert frontend.handle_line(f"SUBMIT User{k} {k} alice wonder") == f"OK {k}"
    assert len(pairs) > 10_000  # about 11 600 at these seeds
    assert len(set(pairs)) == len(pairs)


def test_sync_after_adding_a_user_makes_auth_accept():
    rng = make_rng(17)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    vm, frontend = sealed_frontend(100, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH alice pw") == "OK accept"
    primary.add_user("dave", "diver", rng)
    assert frontend.handle_line("AUTH dave diver") == "OK reject"
    assert frontend.handle_line("SYNC") == "OK 2"
    assert frontend.handle_line("AUTH dave diver") == "OK accept"
    assert frontend.handle_line("SUBMIT Dave 4 dave diver") == "OK 0"


def test_sync_of_an_unchanged_primary_keeps_the_parsed_replica(monkeypatch):
    rng = make_rng(18)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    vm, frontend = sealed_frontend(101, primary_directory=primary)
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH alice pw") == "OK accept"
    parsed = []
    real_parse = CredentialDirectory.parse
    monkeypatch.setattr(CredentialDirectory, "parse",
                        lambda text: parsed.append(text) or real_parse(text))
    for _ in range(3):
        assert frontend.handle_line("SYNC") == "OK 1"
        assert frontend.handle_line("AUTH alice pw") == "OK accept"
        assert frontend.handle_line("AUTH alice wrong") == "OK reject"
    assert parsed == []
    primary.add_user("dave", "diver", rng)
    assert frontend.handle_line("SYNC") == "OK 2"
    assert frontend.handle_line("AUTH dave diver") == "OK accept"
    assert frontend.handle_line("AUTH alice pw") == "OK accept"
    assert parsed == [primary.render()]


PASSWORDS = ["right", "wrong", "", "pässwörd ✓", "right\x00", "r" * 200]


def test_each_parsed_entry_holds_its_salted_state_and_checks_like_the_verifier():
    rng = make_rng(19)
    primary = CredentialDirectory()
    for user, password in (("u", "right"), ("v", "pässwörd ✓"), ("w", "")):
        primary.add_user(user, password, rng)
    replica = CredentialDirectory.parse(primary.render())
    for directory in (primary, replica):
        for entry in directory.entries.values():  # built with the entry, before any check
            assert entry.salted.digest() == hashlib.sha3_512(entry.salt).digest()
        for user, entry in directory.entries.items():
            for password in PASSWORDS:
                expected = _verifier(password, entry.salt) == entry.verifier
                assert directory.check(user, password) is expected
        assert [directory.check(u, p) for u, p in (("u", "right"), ("v", "pässwörd ✓"),
                                                   ("w", ""), ("u", ""), ("ghost", ""))] \
            == [True, True, True, False, False]
        for entry in directory.entries.values():  # a check leaves the state as it was
            assert entry.salted.digest() == hashlib.sha3_512(entry.salt).digest()


# -- every request line is answered ----------------------------------------------------


@pytest.fixture(scope="module")
def serving():
    """A sealed VM's frontend set up as ``sealkit serve`` sets one up: a vault
    attached before the seal, a primary directory, an upstream resolver."""
    from sealkit.sealing import seal_all

    host = build_server(104)
    vm = host.nested_vm
    attach_data_vault(vm, 8, {"/data/records.csv": b"id,value\n"}, make_rng(104))
    seal_all(host)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", make_rng(104))
    return ServiceFrontend(vm, primary_directory=primary,
                           upstream=UpstreamResolver(table={"example.org": "93.184.216.34"}))


SUBMIT_USAGE = "ERR usage: SUBMIT <name> <assets> [user pass]"
MAIL_USAGE = "ERR usage: MAIL <nick>|<comment>|[return]"


@pytest.mark.parametrize("line, response", [
    ("", "ERR usage: empty request"),
    ("SUBMIT", SUBMIT_USAGE),
    ("SUBMIT Alice", SUBMIT_USAGE),
    ("SUBMIT Alice 5 alice", SUBMIT_USAGE),
    ("SUBMIT Alice lots", "ERR usage: assets must be an integer"),
    ("MAIL", MAIL_USAGE),
    ("MAIL nick only", MAIL_USAGE),
    ("MAIL |no nick", MAIL_USAGE),
    ("AUTH alice", "ERR usage: AUTH <user> <pass>"),
    ("AUTH alice pw extra", "ERR usage: AUTH <user> <pass>"),
    ("VAULTKEY", "ERR usage: VAULTKEY <hex>"),
    ("VAULTKEY 00 ff", "ERR usage: VAULTKEY <hex>"),
    ("VAULTKEY xyz", "ERR usage: key must be hex"),
    ("VAULTKEY 00", "ERR WrongKey: keyfile must be 512 bytes"),
    ("RESOLVE", "ERR usage: RESOLVE <domain>"),
    ("RESOLVE example.org example.net", "ERR usage: RESOLVE <domain>"),
    ("frob x", "ERR usage: unknown command FROB"),
])
def test_malformed_request_gets_its_usage_answer(serving, line, response):
    assert serving.handle_line(line) == response


@pytest.fixture(scope="module")
def bare_serving():
    """A sealed SMALL VM's frontend with no vault disk, directory or upstream resolver."""
    return sealed_frontend(106)[1]


@pytest.mark.parametrize("line, response", [
    ("SUBMIT x -5", "ERR ServiceError: assets must be non-negative"),
    ("RESOLVE example.org", "ERR Unresolvable: no upstream resolver configured"),
    ("VAULTKEY " + "00" * 512, "ERR ServiceError: no vault disk attached"),
])
def test_a_refused_request_gets_its_exact_answer(bare_serving, line, response):
    assert bare_serving.handle_line(line) == response


def test_vaultkey_with_the_data_providers_key_unlocks_the_vault():
    from sealkit.sealing import seal_all

    host = build_server(107)
    key = attach_data_vault(host.nested_vm, 8, {"/d": b"x"}, make_rng(17))
    seal_all(host)
    frontend = ServiceFrontend(host.nested_vm)
    assert frontend.handle_line(f"VAULTKEY {key.data.hex()}") == "OK vault unlocked"


def test_readme_request_list_matches_the_verbs():
    """Each line of README's "serve requests" block: a verb of the handler table
    and its form; a verb that takes arguments answers its bare line with that form."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n### serve requests\n", 1)[1].split("```\n", 2)[1]
    forms = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    assert sorted(form.split()[0] for form in forms) == sorted(ServiceFrontend._HANDLERS)
    frontend = ServiceFrontend(build_server(108).nested_vm)  # not running: usage comes first
    for form in forms:
        verb = form.split()[0]
        answer = frontend.handle_line(verb)
        if form == verb:
            assert answer.startswith("ERR NotSealed: "), form
        else:
            assert answer == f"ERR usage: {form}"


VERBS = ("SUBMIT", "PUBLISH", "MAIL", "AUTH", "SYNC", "VAULTKEY", "RESOLVE")
# what a line of non-UTF-8 bytes becomes on a stdin decoded with surrogateescape
escaped_bytes = st.binary(max_size=12).map(lambda b: b.decode("utf-8", "surrogateescape"))
request_lines = st.one_of(
    st.builds(lambda verb, tokens: " ".join((verb, *tokens)),
              st.sampled_from(VERBS) | st.sampled_from(VERBS).map(str.lower),
              st.lists(st.text(min_size=1, max_size=12) | escaped_bytes, max_size=5)),
    st.text("0123456789abcdefABCDEF", max_size=1100).map("VAULTKEY {}".format),
    escaped_bytes,
)


@settings(max_examples=120)
@example(line="VAULTKEY " + "00" * 512)
@example(line="SUBMIT \udcff\udcfe 5 alice pw")
@example(line="AUTH jürgen pw")
@example(line="RESOLVE bücher.example")
@given(line=request_lines)
def test_every_request_line_gets_one_answer_and_the_next_auth_too(serving, line):
    response = serving.handle_line(line)
    assert "\n" not in response
    response.encode()  # writable to any UTF-8 stdout
    assert response == "OK" or response.startswith(("OK ", "ERR "))
    assert serving.handle_line("AUTH alice pw") in ("OK accept", "OK reject")


def test_oversized_submit_answers_disk_full_and_the_next_one_is_stored():
    vm, frontend = sealed_frontend(105)
    capacity = vm.root_volume.sector_count * vol.SECTOR_BYTES
    response = frontend.handle_line(f"SUBMIT {'n' * capacity} 5")
    assert re.fullmatch(rf"ERR DiskFull: image needs \d+ bytes, volume holds {capacity}",
                        response)
    assert frontend.handle_line("SUBMIT Bob 7") == "OK 0"
    assert frontend.handle_line("PUBLISH") == "OK Bob"
    assert read_volume_tree(vm.ram.handle)[0].encode() == vm.ram.tree.encode()
