from __future__ import annotations

import pytest

from conftest import build_sealed, build_server

from sealkit.manifest import compute_manifest
from sealkit.services import (
    AuthRequired,
    CredentialDirectory,
    MillionairesState,
    NotSealed,
    ReadOnlyDirectory,
    ReplicationUnconfigured,
    ServiceFrontend,
    Unresolvable,
    UpstreamResolver,
    WrongKey,
    attach_data_vault,
    authenticate,
    credential_sync,
    dns_proxy_resolve,
    millionaires_publish,
    millionaires_submit,
    read_vault_tree,
    vault_attach,
)
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


def sealed_frontend(seed, **kwargs):
    host, vm, host_images, vm_images, bundle = build_sealed(seed)
    return vm, ServiceFrontend(vm, **kwargs)


# -- millionaires: pure core -------------------------------------------------------


def test_publish_matches_brute_force_oracle():
    state = MillionairesState()
    for name, assets in (("Alice", 5), ("Bob", 3), ("Carol", 7)):
        state = millionaires_submit(state, name, assets)
    assert millionaires_publish(state) == ["Carol", "Alice", "Bob"]
    assert millionaires_publish(state) == ranking_oracle(
        [("Alice", 5), ("Bob", 3), ("Carol", 7)]
    )


def test_publish_empty_state():
    assert millionaires_publish(MillionairesState()) == []


def test_publish_breaks_ties_by_arrival():
    state = MillionairesState()
    state = millionaires_submit(state, "X", 4)
    state = millionaires_submit(state, "Y", 4)
    assert millionaires_publish(state) == ["X", "Y"]


def test_publish_ascending_flag():
    state = MillionairesState()
    for name, assets in (("A", 1), ("B", 9), ("C", 5)):
        state = millionaires_submit(state, name, assets)
    assert millionaires_publish(state, descending=False) == ["A", "C", "B"]


def test_submissions_keep_arrival_order():
    state = MillionairesState()
    state = millionaires_submit(state, "A", 5)
    state = millionaires_submit(state, "B", 3)
    assert [(s.name, s.assets, s.sequence) for s in state.submissions] == [
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
        published = "\n".join(millionaires_publish(state))
        for value in values:
            assert str(value) not in published


# -- millionaires: sealed frontend ----------------------------------------------------


def test_submit_requires_sealed_server():
    host = build_server(80)
    vm = host.nested_vm
    vm.boot()  # running but unsealed
    frontend = ServiceFrontend(vm)
    with pytest.raises(NotSealed):
        frontend.submit_assets("Early", 1)


def test_submit_and_publish_on_sealed_server():
    vm, frontend = sealed_frontend(81)
    frontend.submit_assets("Alice", 500)
    frontend.submit_assets("Bob", 900)
    assert frontend.publish_ranking() == ["Bob", "Alice"]
    ranking_file = vm.ram.tree.read_text(f"{vm.config.webroot}/ranking.txt")
    assert ranking_file == "Bob\nAlice\n"


def test_submit_with_auth_enabled():
    rng = make_rng(5)
    primary = CredentialDirectory()
    primary.add_user("alice", "wonder", rng)
    vm, frontend = sealed_frontend(82, primary_directory=primary)
    with pytest.raises(AuthRequired):
        frontend.submit_assets("Anon", 10)
    frontend.sync_credentials()
    assert frontend.submit_assets("Alice", 10, credentials=("alice", "wonder")) == 0
    with pytest.raises(AuthRequired):
        frontend.submit_assets("Mallory", 10, credentials=("alice", "wrong"))


# -- maildrop -----------------------------------------------------------------------


def manifest_of(vm):
    view = vm.ram.tree.mount("/boot", vm.boot_partition)
    return compute_manifest(view, vm.config.root_specs()).render()


def test_maildrop_leaves_persistent_state_unchanged():
    vm, frontend = sealed_frontend(83)
    before = manifest_of(vm)
    outbox_before = len(vm.ram.services.mailer)
    frontend.submit_mail("nick", "something to report")
    assert len(vm.ram.services.mailer) == outbox_before + 1
    assert manifest_of(vm) == before  # manifest-equality oracle


def test_maildrop_includes_return_address_when_given():
    vm, frontend = sealed_frontend(84)
    message = frontend.submit_mail("nick", "hello", return_address="me@example.net")
    assert "me@example.net" in message.body


def test_maildrop_anonymous_has_no_sender_identity():
    vm, frontend = sealed_frontend(85)
    message = frontend.submit_mail("nick", "hello")
    assert message.return_address is None
    assert "return address" not in message.body


def test_maildrop_requires_sealed_server():
    host = build_server(86)
    vm = host.nested_vm
    vm.boot()
    with pytest.raises(NotSealed):
        ServiceFrontend(vm).submit_mail("n", "c")


# -- credential replication -------------------------------------------------------------


def test_sync_replicates_and_publishes_dump():
    rng = make_rng(6)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw-one", rng)
    vm, frontend = sealed_frontend(87, primary_directory=primary)

    ldap_before = vm.ram.tree.read_text(f"{vm.config.webroot}/ldap.txt")
    assert not frontend.authenticate("carol", "pw-one")
    frontend.sync_credentials()
    assert frontend.authenticate("carol", "pw-one")
    ldap_after = vm.ram.tree.read_text(f"{vm.config.webroot}/ldap.txt")
    assert len(ldap_after) > len(ldap_before)  # dump appended after sync


def test_sync_unconfigured():
    vm, frontend = sealed_frontend(88)
    with pytest.raises(ReplicationUnconfigured):
        frontend.sync_credentials()


def test_sealed_side_writes_are_rejected():
    rng = make_rng(7)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw", rng)
    replica, _ = credential_sync(CredentialDirectory(), primary)
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
    frontend.sync_credentials()
    frontend.authenticate("carol", "pw")
    frontend.submit_assets("Carol", 3, credentials=("carol", "pw"))
    assert primary.render() == snapshot  # untouched by sealed-side activity


def test_user_removed_on_primary_rejected_after_sync():
    rng = make_rng(9)
    primary = CredentialDirectory()
    primary.add_user("carol", "pw", rng)
    vm, frontend = sealed_frontend(90, primary_directory=primary)
    frontend.sync_credentials()
    assert frontend.authenticate("carol", "pw")
    primary.remove_user("carol")
    frontend.sync_credentials()
    assert not frontend.authenticate("carol", "pw")


def test_authenticate_pure():
    rng = make_rng(10)
    directory = CredentialDirectory()
    directory.add_user("u", "right", rng)
    assert authenticate(directory, "u", "right")
    assert not authenticate(directory, "u", "wrong")
    assert not authenticate(directory, "ghost", "right")


# -- data vault ---------------------------------------------------------------------


def test_vault_attach_round_trip():
    host = build_server(91)
    vm = host.nested_vm
    rng = make_rng(11)
    key = attach_data_vault(vm, 16, {"/data/genome.txt": b"ACGT" * 100}, rng)
    from sealkit.sealing import seal_all

    seal_all(host)
    handle = vault_attach(vm, key)
    tree = read_vault_tree(handle)
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
        vault_attach(vm, key)


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
    handle = vault_attach(vm, key)
    host.power_off()
    assert not handle.valid
    # the server itself is sealed: it cannot come back, so neither can the vault
    from sealkit.machine import SealedAndCold

    with pytest.raises(SealedAndCold):
        vm.boot()


# -- dns proxy -----------------------------------------------------------------------


def test_proxy_hides_client_address():
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    answer = dns_proxy_resolve("example.org", "10.0.0.77", upstream, "203.0.113.80")
    assert answer == "93.184.216.34"
    assert upstream.query_log == [("203.0.113.80", "example.org")]
    assert all(source != "10.0.0.77" for source, _ in upstream.query_log)


def test_proxy_unknown_domain():
    upstream = UpstreamResolver(table={})
    with pytest.raises(Unresolvable):
        dns_proxy_resolve("nonexistent.test", "10.0.0.1", upstream, "203.0.113.80")


def test_proxy_answers_are_client_independent():
    upstream = UpstreamResolver(table={"example.org": "93.184.216.34"})
    a = dns_proxy_resolve("example.org", "10.0.0.1", upstream, "203.0.113.80")
    b = dns_proxy_resolve("example.org", "10.0.0.2", upstream, "203.0.113.80")
    assert a == b


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


def test_line_protocol_auth_and_audit():
    rng = make_rng(16)
    primary = CredentialDirectory()
    primary.add_user("alice", "pw", rng)
    audit: list[tuple[str, str]] = []
    vm, frontend = sealed_frontend(
        96, primary_directory=primary,
        audit_hook=lambda req, resp: audit.append((req, resp)),
    )
    assert frontend.handle_line("SYNC") == "OK 1"
    assert frontend.handle_line("AUTH alice pw") == "OK accept"
    assert frontend.handle_line("AUTH alice bad") == "OK reject"
    assert frontend.handle_line("SUBMIT Eve 5").startswith("ERR AuthRequired")
    assert frontend.handle_line("SUBMIT Alice 5 alice pw") == "OK 0"
    assert [req for req, _ in audit] == [
        "SYNC", "AUTH alice pw", "AUTH alice bad", "SUBMIT Eve 5",
        "SUBMIT Alice 5 alice pw",
    ]
