from __future__ import annotations

import io
import zipfile
from dataclasses import replace

import pytest

from conftest import SMALL, build_sealed, build_server

from sealkit import volume as vol
from sealkit.config import ConfigError
from sealkit.machine import (HOST, LDAP_REPLICA_PATH, VM, GeometryMismatch, MachineRunning,
                             full_tree_from_images, unzip_to_map)
from sealkit.sealing import (
    AlreadySealed,
    CriticalStepFailure,
    HOST_LOG_NAME,
    ProtocolError,
    PublishedBundle,
    VM_LOG_NAME,
    WebrootIncomplete,
    default_plan,
    publish_bundle,
    render_log,
    seal_all,
    seal_host,
    seal_vm,
)
from sealkit.services import CredentialDirectory


# -- prepare_trusted_server ------------------------------------------------------


def test_prepared_server_boots_and_seals_cleanly():
    host = build_server(30)
    bundle = seal_all(host)
    assert set(bundle.artifacts) >= {HOST_LOG_NAME, VM_LOG_NAME}


def test_prepared_disks_have_one_active_slot_each():
    host = build_server(31)
    for machine in (host, host.nested_vm):
        assert machine.root_volume.header.active_slots() == [0]


def test_prepared_webroot_is_empty_of_logs():
    host = build_server(32)
    vm = host.nested_vm
    vm.boot()
    webroot = host.config.webroot
    assert vm.ram.tree.is_dir(webroot)
    assert [p for p in vm.ram.tree.under(webroot) if vm.ram.tree.is_file(p)] == []
    vm.power_off()


@pytest.mark.parametrize("root, machine", [
    ("/nonexistent", "ts-host"),
    ("/srv/data", "ts-host"),  # only the VM has it
    ("/root/host-secret.txt", "tsvm"),  # only the host has it
])
def test_missing_hash_root_fails_at_build_naming_the_machine(root, machine):
    with pytest.raises(ConfigError, match=f"hash root {root} does not exist on {machine} "):
        build_server(34, replace(SMALL, hash_roots=("/etc", root)))


# -- seal_host ---------------------------------------------------------------------


def test_seal_host_erases_host_slots():
    host = build_server(33)
    host.boot()
    seal_host(host, default_plan(host.config))
    assert host.root_volume.header.active_slots() == []


def test_seal_host_reencrypts_vm_disk():
    host = build_server(34)
    before = host.nested_vm.root_volume.header.slots[0].wrapped_key
    host.boot()
    seal_host(host, default_plan(host.config))
    after = host.nested_vm.root_volume.header.slots[0].wrapped_key
    assert before != after


def test_seal_host_copies_log_to_vm_boot():
    host = build_server(35)
    host.boot()
    log = seal_host(host, default_plan(host.config))
    published = host.nested_vm.boot_partition.read_file(f"/{HOST_LOG_NAME}")
    assert published.decode() == render_log(log)


def test_seal_host_requires_booted_host_and_cold_vm():
    host = build_server(36)
    with pytest.raises(ProtocolError):
        seal_host(host, default_plan(host.config))
    host.boot()
    host.nested_vm.boot()
    with pytest.raises(ProtocolError):
        seal_host(host, default_plan(host.config))


def test_critical_step_failure_aborts():
    host = build_server(37)
    host.boot()
    plan = default_plan(host.config)
    # sabotage: the VM keyfile no longer opens its disk, so reencrypt fails
    host.nested_vm.boot_partition.write_file("/keyfile", b"\x00" * 512)
    with pytest.raises(CriticalStepFailure) as excinfo:
        seal_host(host, plan)
    assert "cryptsetup-reencrypt" in excinfo.value.step.command


# -- seal_vm ------------------------------------------------------------------------


def sealed_vm(seed):
    host = build_server(seed)
    seal_all(host)
    return host, host.nested_vm


def test_seal_vm_erases_vm_slots():
    _, vm = sealed_vm(38)
    assert vm.root_volume.header.active_slots() == []


def test_seal_vm_webroot_holds_both_logs():
    host, vm = sealed_vm(39)
    webroot = host.config.webroot
    assert vm.ram.tree.is_file(f"{webroot}/{HOST_LOG_NAME}")
    assert vm.ram.tree.is_file(f"{webroot}/{VM_LOG_NAME}")


def test_seal_vm_sends_notification_mail():
    _, vm = sealed_vm(40)
    outbox = vm.ram.mailer
    assert len(outbox) == 1
    assert "trusted server running" in outbox[0].subject


# -- seal_all -----------------------------------------------------------------------


def test_seal_all_full_run():
    host, vm, _, _, bundle = build_sealed(41)
    assert host.is_sealed and vm.is_sealed
    assert host.is_on and vm.is_on
    assert vm.ram.web_running
    for name in (HOST_LOG_NAME, VM_LOG_NAME, "etc-host.zip", "root-host.zip",
                 "etc-vm.zip", "trust-vm.zip", "ldap.txt"):
        assert name in bundle.artifacts


def test_seal_all_then_power_off_is_permanent():
    host, vm, _, _, _ = build_sealed(42)
    host.power_off()
    from sealkit.machine import SealedAndCold

    with pytest.raises(SealedAndCold):
        host.boot()
    with pytest.raises(SealedAndCold):
        vm.boot()


def test_seal_all_twice_is_a_precondition_error():
    host, _, _, _, _ = build_sealed(43)
    with pytest.raises(AlreadySealed):
        seal_all(host)


def test_golden_path_logs_a_noncritical_failure_and_continues():
    # the VM plan cats /etc/hosts.allow after removing it, like the scripts do
    host = build_server(56)
    seal_all(host)
    vm_log_text = host.nested_vm.ram.tree.read_text(
        f"{host.config.webroot}/{VM_LOG_NAME}"
    )
    assert "cat: /etc/hosts.allow: No such file or directory" in vm_log_text
    assert host.nested_vm.is_sealed  # the failure did not stop the protocol


def test_plan_hashes_usr_bin_non_recursively():
    plan = default_plan(SMALL)
    commands = [s.command for s in plan[HOST]]
    assert "rhash --sha3-512 /usr/bin/*" in commands
    assert "rhash -r --sha3-512 /etc" in commands


def test_plan_stage_endings():
    plan = default_plan(SMALL)
    assert [s.kind for s in plan[HOST][-2:]] == ["copy_log_to_vm_boot", "start_vm"]
    assert [s.kind for s in plan[VM][-2:]] == ["start_web", "send_mail"]


def test_log_completeness_every_plan_step_once_in_order():
    host = build_server(44)
    plan = default_plan(host.config)
    host.boot()
    host_log = seal_host(host, plan)
    assert [r.command for r in host_log] == [s.command for s in plan[HOST]]
    host.nested_vm.boot()
    vm_log = seal_vm(host.nested_vm, plan)
    assert [r.command for r in vm_log] == [s.command for s in plan[VM]]


def test_post_seal_invariants():
    host, vm, host_images, vm_images, _ = build_sealed(45)
    for machine, images in ((host, host_images), (vm, vm_images)):
        keyfile = vol.Keyfile(images.boot.read_file("/keyfile"))
        with pytest.raises(vol.KeyslotsEmpty):
            vol.unlock(machine.root_volume, keyfile)
        assert not machine.ram.tree.exists("/usr/sbin/sshd")
        assert "trust" not in machine.ram.tree.read_text("/etc/passwd")
        assert machine.ram.firewall.output_policy == "DROP"
        assert not [r for r in machine.ram.firewall.input_rules if "--dport 22" in r]


# -- publish_bundle -----------------------------------------------------------------


def test_bundle_index_digest_stable_across_assemblies():
    host, vm, _, _, bundle = build_sealed(46)
    again = publish_bundle(vm)
    assert bundle.index_digest() == again.index_digest()


def test_bundle_contains_ldap_dump():
    _, _, _, _, bundle = build_sealed(47)
    assert "ldap.txt" in bundle.artifacts
    assert bundle.artifacts["ldap.txt"].strip()


def test_bundle_contains_no_keyfile_bytes():
    host, vm, host_images, vm_images, bundle = build_sealed(48)
    host_keyfile = host_images.boot.read_file("/keyfile")
    vm_keyfile = vm_images.boot.read_file("/keyfile")
    for name, data in bundle.artifacts.items():
        assert host_keyfile not in data, name
        assert vm_keyfile not in data, name


def test_publish_requires_complete_webroot():
    host, vm, _, _, _ = build_sealed(49)
    vm.remove_path(f"{host.config.webroot}/ldap.txt")
    with pytest.raises(WebrootIncomplete):
        publish_bundle(vm)


def test_bundle_save_load_round_trip(tmp_path):
    _, _, _, _, bundle = build_sealed(50)
    bundle.save(tmp_path / "bundle")
    loaded = PublishedBundle.load(tmp_path / "bundle")
    assert loaded.artifacts == bundle.artifacts
    assert loaded.index_digest() == bundle.index_digest()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_published_directory_dump_names_the_users_and_holds_no_verifier(seed):
    config = replace(SMALL, ldap_users=(("alice", "alice-pw-5f1c"), ("bob", "bob-pw-93ad")))
    host = build_server(seed, config)
    replica = full_tree_from_images(host.nested_vm.snapshot_image()).read_text(LDAP_REPLICA_PATH)
    dump = seal_all(host).artifacts["ldap.txt"]
    assert dump.decode().splitlines()[-2:] == ["alice", "bob"]
    entries = CredentialDirectory.parse(replica).entries.values()
    assert sorted(e.user for e in entries) == ["alice", "bob"]
    for entry in entries:
        for secret in (entry.salt, entry.verifier):
            assert secret not in dump
            assert secret.hex().encode() not in dump


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: root-host.zip publishes the host's protected payload")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_bundle_artifact_holds_a_seeded_secret(seed):
    config = replace(SMALL, ldap_users=(("alice", "alice-pw-5f1c"), ("bob", "bob-pw-93ad")))
    host = build_server(seed, config)
    host_images, vm_images = host.snapshot_image(), host.nested_vm.snapshot_image()
    secrets = {
        "host payload": full_tree_from_images(host_images).read_file("/root/host-secret.txt"),
        "vm payload": full_tree_from_images(vm_images).read_file("/srv/data/vm-secret.txt"),
        "host keyfile": host_images.boot.read_file("/keyfile"),
        "vm keyfile": vm_images.boot.read_file("/keyfile"),
        **{f"password of {user}": password.encode() for user, password in config.ldap_users},
    }
    leaks = []
    for name, data in seal_all(host).artifacts.items():
        members = {name: data}
        if zipfile.is_zipfile(io.BytesIO(data)):
            members.update({f"{name}:{path}": member
                            for path, member in unzip_to_map(data).items()})
        leaks += [(where, what) for where, blob in members.items()
                  for what, secret in secrets.items() if secret in blob]
    assert leaks == []


# -- restoring the pre-seal images ------------------------------------------------------


def test_restore_without_reseal_leaves_unsealed_bootable():
    host, vm, host_images, vm_images, _ = build_sealed(51)
    host.power_off()
    host.restore_image(host_images)
    vm.restore_image(vm_images)
    assert not host.is_sealed
    host.boot()
    assert host.is_on


def test_restore_with_reseal_produces_fresh_key():
    host, vm, host_images, vm_images, first = build_sealed(52)
    first_digest = vm.root_volume.header.mk_digest
    host.power_off()
    host.restore_image(host_images)
    vm.restore_image(vm_images)
    second = seal_all(host)
    assert vm.root_volume.header.mk_digest != first_digest
    assert second.index_digest() != first.index_digest()


def test_restore_requires_power_off():
    host, _, host_images, _, _ = build_sealed(53)
    with pytest.raises(MachineRunning):
        host.restore_image(host_images)


def test_restore_rejects_swapped_images():
    host, vm, host_images, vm_images, _ = build_sealed(54)
    host.power_off()
    with pytest.raises(GeometryMismatch):
        host.restore_image(vm_images)
    with pytest.raises(GeometryMismatch):
        vm.restore_image(host_images)
