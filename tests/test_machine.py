from __future__ import annotations

import pytest

from conftest import build_server

from sealkit import volume as vol
from sealkit.machine import (
    DiskFull,
    GeometryMismatch,
    MachineRunning,
    SealedAndCold,
    SealingStep,
    full_tree_from_images,
    load_images,
    save_images,
)
from sealkit.sealing import seal_all


def step(kind, command="", **args):
    return SealingStep(kind=kind, command=command or kind, args=args)


# -- boot ---------------------------------------------------------------------


def test_boot_runs_cron_commands():
    host = build_server(1)
    report = host.boot()
    assert report.unlocked
    assert any("iptables-restore" in c for c in report.cron_commands)
    assert any("init_trusted_mode" in c for c in report.cron_commands)


def test_boot_sealed_machine_is_cold():
    host = build_server(2)
    seal_all(host)
    host.power_off()
    with pytest.raises(SealedAndCold):
        host.boot()
    with pytest.raises(SealedAndCold):
        host.nested_vm.boot()


def test_boot_twice_is_a_precondition_error():
    host = build_server(3)
    host.boot()
    with pytest.raises(MachineRunning):
        host.boot()


# -- power_off -----------------------------------------------------------------


def test_power_off_is_idempotent():
    host = build_server(4)
    host.power_off()
    host.power_off()
    assert host.power == "off"


def test_power_off_invalidates_handles():
    host = build_server(5)
    host.boot()
    handle = host.ram.handle
    host.power_off()
    assert not handle.valid
    assert host.ram is None
    with pytest.raises(vol.StaleHandle):
        vol.read_sector(handle, 0)


def test_power_off_cascades_to_nested_vm():
    host = build_server(6)
    host.boot()
    host.nested_vm.boot()
    host.power_off()
    assert host.nested_vm.power == "off"


def test_power_cycle_preserves_persistent_state():
    host = build_server(7)
    host.boot()
    first = host.ram.tree.encode()
    host.power_off()
    host.boot()
    assert host.ram.tree.encode() == first


# -- exec_step ------------------------------------------------------------------


def test_remove_user_rewrites_passwd():
    host = build_server(8)
    host.boot()
    record = host.exec_step(step("remove_user", "userdel -f trust", name="trust"))
    assert record.ok
    assert "trust" not in host.ram.tree.read_text("/etc/passwd")
    assert "trust" not in host.ram.users


def test_remove_user_twice_fails_but_continues():
    host = build_server(9)
    host.boot()
    assert host.exec_step(step("remove_user", name="trust")).ok
    second = host.exec_step(step("remove_user", name="trust"))
    assert not second.ok
    assert "does not exist" in second.output
    # the machine is still operable afterwards
    assert host.exec_step(step("set_output_drop")).ok


def test_purge_ssh_removes_service_and_files():
    host = build_server(10)
    host.boot()
    assert host.exec_step(step("purge_ssh")).ok
    assert host.ram.services.ssh == "purged"
    assert not host.ram.services.ssh_running
    assert not host.ram.tree.exists("/usr/sbin/sshd")
    probe = host.exec_step(step("service_status", unit="sshd"))
    assert "could not be found" in probe.output


def test_delete_input_rule_shifts_indices():
    host = build_server(11)
    host.boot()
    rules = list(host.ram.firewall.input_rules)
    assert host.exec_step(step("delete_input_rule", index=4)).ok
    assert host.ram.firewall.input_rules == rules[:3] + rules[4:]
    bad = host.exec_step(step("delete_input_rule", index=99))
    assert not bad.ok


def test_write_through_after_every_step():
    from sealkit.sealing import default_plan

    host = build_server(12)
    host.boot()
    for s in default_plan(host.config).host_steps:
        host.exec_step(s)
        # serialize RAM tree; decrypting the volume must reproduce it exactly
        expected = host.ram.tree.encode()
        plain = b"".join(
            vol.read_sector(host.ram.handle, i)
            for i in range(host.root_volume.sector_count)
        )
        assert plain[: len(expected)] == expected, f"divergence after {s.command}"


def test_no_keyfile_bytes_in_encrypted_tree():
    host = build_server(13)
    host.boot()
    keyfile = host.boot_partition.read_file("/keyfile")
    assert keyfile not in host.ram.tree.encode()


def test_write_beyond_capacity_raises_disk_full():
    host = build_server(14)
    host.boot()
    capacity = host.root_volume.sector_count * vol.SECTOR_BYTES
    sectors, image = list(host.root_volume.sectors), host.ram.plain_image
    with pytest.raises(DiskFull):
        host.write_file("/root/big.bin", b"x" * capacity)
    assert host.root_volume.sectors == sectors
    assert host.ram.plain_image == image


def test_overflowing_step_records_no_space_left():
    host = build_server(15)
    host.boot()
    capacity = host.root_volume.sector_count * vol.SECTOR_BYTES
    host.boot_partition.write_file("/big.bin", b"x" * capacity)
    record = host.exec_step(step("move_from_boot", name="big.bin", dest_dir="/root"))
    assert record.exit_status == 1
    assert record.output.startswith("no space left on device")
    assert host.boot_partition.is_file("/big.bin")  # the move did not happen


# -- snapshot / restore ------------------------------------------------------------


def test_snapshot_restore_round_trip():
    host = build_server(14)
    images = host.snapshot_image()
    host.boot()
    host.write_file("/etc/marker", b"mutated")
    host.power_off()
    host.restore_image(images)
    again = host.snapshot_image()
    assert vol.serialize_volume(again.root) == vol.serialize_volume(images.root)
    assert again.boot.encode() == images.boot.encode()


def test_snapshot_requires_power_off():
    host = build_server(15)
    host.boot()
    with pytest.raises(MachineRunning):
        host.snapshot_image()
    with pytest.raises(MachineRunning):
        host.restore_image(host.nested_vm.snapshot_image())


def test_snapshot_is_isolated_from_later_mutation():
    host = build_server(16)
    images = host.snapshot_image()
    host.boot()
    host.write_file("/etc/marker", b"mutated")
    host.power_off()
    assert not full_tree_from_images(images).exists("/etc/marker")


def test_sealed_snapshot_retains_empty_keyslots():
    host = build_server(17)
    seal_all(host)
    host.power_off()
    images = host.snapshot_image()
    assert vol.dump(images.root).slot_states == ("EMPTY",) * 8


def test_restore_after_sealing_makes_machine_bootable():
    host = build_server(18)
    images = host.snapshot_image()
    vm_images = host.nested_vm.snapshot_image()
    seal_all(host)
    host.power_off()
    host.restore_image(images)
    host.nested_vm.restore_image(vm_images)
    assert host.boot().unlocked
    assert host.nested_vm.boot().unlocked


def test_restore_rejects_geometry_mismatch():
    host = build_server(19)
    vm_images = host.nested_vm.snapshot_image()  # 256 sectors vs host's 192
    with pytest.raises(GeometryMismatch):
        host.restore_image(vm_images)


def test_reseal_after_restore_uses_fresh_keys():
    host = build_server(20)
    host_images = host.snapshot_image()
    vm_images = host.nested_vm.snapshot_image()
    seal_all(host)
    first_digest = host.nested_vm.root_volume.header.mk_digest
    host.power_off()
    host.restore_image(host_images)
    host.nested_vm.restore_image(vm_images)
    seal_all(host)
    assert host.nested_vm.root_volume.header.mk_digest != first_digest


# -- image directory layout ----------------------------------------------------------


def test_image_save_load_round_trip(tmp_path):
    host = build_server(21)
    images = host.snapshot_image()
    save_images(images, tmp_path / "host")
    assert (tmp_path / "host" / "boot.tree").exists()
    assert (tmp_path / "host" / "root.tsvol").exists()
    loaded = load_images(tmp_path / "host")
    assert vol.serialize_volume(loaded.root) == vol.serialize_volume(images.root)
    assert loaded.boot.encode() == images.boot.encode()


def test_full_tree_from_images_mounts_boot():
    host = build_server(22)
    tree = full_tree_from_images(host.snapshot_image())
    assert tree.is_file("/boot/keyfile")
    assert tree.is_file("/etc/passwd")
