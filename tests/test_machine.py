from __future__ import annotations

import tracemalloc

import pytest

from conftest import build_server

from sealkit import volume as vol
from sealkit.config import ServerConfig
from sealkit.machine import (
    HOST,
    DiskFull,
    DiskImagePair,
    GeometryMismatch,
    MachineRunning,
    STEP_KINDS,
    SealedAndCold,
    SealingStep,
    full_tree_from_images,
    load_images,
    render_listing,
    save_images,
)
from sealkit.sealing import seal_all
from sealkit.tree import FileNode, FileTree, SymlinkNode, TreeError
from sealkit.util import make_rng


def serialized(volume) -> bytes:
    return b"".join(vol.serialize_volume(volume))


def step(kind, command="", **args):
    return SealingStep(kind=kind, command=command or kind, args=args)


# -- boot ---------------------------------------------------------------------


def test_boot_runs_cron_commands():
    host = build_server(1)
    host.boot()
    cron = host.ram.tree.read_text(host.stage.cron_script)
    assert "iptables-restore" in cron
    assert "init_trusted_mode" in cron


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
    assert not host.is_on


def test_power_off_invalidates_handles():
    host = build_server(5)
    host.boot()
    handle = host.ram.handle
    host.power_off()
    assert handle.cipher is None and handle.key is None
    assert host.ram is None
    with pytest.raises(vol.StaleHandle):
        vol.read_sector(handle, 0)


def test_power_off_cascades_to_nested_vm():
    host = build_server(6)
    host.boot()
    host.nested_vm.boot()
    host.power_off()
    assert not host.nested_vm.is_on


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
    host.power_off()
    host.boot()
    assert "trust" not in host.ram.tree.read_text("/etc/passwd")


def test_remove_user_finds_a_user_added_after_boot():
    host = build_server(8)
    host.boot()
    passwd = host.ram.tree.read_text("/etc/passwd")
    mallory = "mallory:x:1001:1001::/home/mallory:/bin/bash\n"
    host.write_file("/etc/passwd", (passwd + mallory).encode())
    record = host.exec_step(step("remove_user", "userdel -f mallory", name="mallory"))
    assert (record.exit_status, record.output) == (0, "")
    assert host.ram.tree.read_text("/etc/passwd") == passwd


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
    assert not host.ram.tree.exists("/usr/sbin/sshd")
    probe = host.exec_step(step("service_status"))
    assert "could not be found" in probe.output


def test_ssh_steps_on_a_vm_that_boots_without_sshd():
    vm = build_server(11).nested_vm
    vm.boot()
    vm.remove_path("/usr/sbin/sshd")
    vm.power_off()
    vm.boot()  # the disk it boots from holds no sshd
    purge = vm.exec_step(step("purge_ssh"))
    assert (purge.output, purge.exit_status) == (
        "Package 'openssh-server' is not installed, so not removed.", 0)
    probe = vm.exec_step(step("service_status"))
    assert (probe.output, probe.exit_status) == ("Unit sshd.service could not be found.", 4)


def test_sshd_written_back_after_the_purge_reports_running():
    """sshd counts as installed while /usr/sbin/sshd is a regular file in the RAM tree."""
    host = build_server(12)
    host.boot()
    assert host.exec_step(step("purge_ssh")).ok
    host.write_file("/usr/sbin/sshd", b"#!ELF sshd\n")
    probe = host.exec_step(step("service_status"))
    assert probe.ok and "Active: active (running)" in probe.output


def test_delete_input_rule_shifts_indices():
    host = build_server(11)
    host.boot()
    rules = list(host.ram.firewall.input_rules)
    assert host.exec_step(step("delete_input_rule", index=4)).ok
    assert host.ram.firewall.input_rules == rules[:3] + rules[4:]
    bad = host.exec_step(step("delete_input_rule", index=99))
    assert not bad.ok


def booted_vm(seed):
    """A running VM: a machine with no nested VM of its own."""
    vm = build_server(seed).nested_vm
    vm.boot()
    return vm


def host_with_vm_on(seed):
    host = build_server(seed)
    host.boot()
    host.nested_vm.boot()
    return host


def booted_vm_without_hosts_allow(seed):
    vm = booted_vm(seed)
    vm.remove_path("/etc/hosts.allow")
    return vm


@pytest.mark.parametrize("machine, failing, output, status", [
    (booted_vm, step("reencrypt_vm"), "cryptsetup-reencrypt: no such device", 1),
    (booted_vm, step("luks_dump", target="vm"), "cryptsetup: no such device", 1),
    (booted_vm, step("luks_erase", target="vm"), "cryptsetup: no such device", 1),
    (booted_vm, step("copy_log_to_vm_boot"),
     "cp: cannot create regular file '/mnt': no medium", 1),
    (booted_vm, step("start_vm", name="tsvm"), "error: failed to get domain 'tsvm'", 1),
    (booted_vm, step("zip_tree", src="/etc", dest="vm_boot", name="etc-host.zip"),
     "zip error: destination not mounted", 15),
    (host_with_vm_on, step("reencrypt_vm"), "cryptsetup-reencrypt: device is busy", 1),
    (booted_vm, step("zip_tree", src="/nope", dest="tree", dest_path="/var/www/log/x.zip"),
     "zip error: nothing to do (/nope not found)", 12),
    (booted_vm, step("hash_tree", root="/nope"), "rhash: /nope: No such file or directory", 1),
    (booted_vm, step("move_from_boot", name="missing.log", dest_dir="/var/www/log"),
     "mv: cannot stat '/boot/missing.log': No such file or directory", 1),
    (booted_vm, step("delete_input_rule", index=99), "iptables: Index of deletion too big.", 1),
    (booted_vm_without_hosts_allow, step("remove_hosts_allow"),
     "rm: cannot remove '/etc/hosts.allow': No such file or directory", 1),
    (booted_vm, step("remove_user", name="mallory"), "userdel: user 'mallory' does not exist", 1),
], ids=["reencrypt-no-vm", "luks-dump-no-vm", "luks-erase-no-vm", "copy-log-no-vm",
        "start-vm-no-vm", "zip-to-vm-boot-no-vm", "reencrypt-vm-running", "zip-missing-root", "hash-missing-root", "move-missing-file",
        "delete-rule-past-the-table", "remove-missing-hosts-allow", "remove-unknown-user"])
def test_failing_step_records_its_output_and_status(machine, failing, output, status):
    m = machine(18)
    before = m.ram.tree.encode()
    record = m.exec_step(failing)
    assert (record.command, record.output, record.exit_status) == (failing.command, output, status)
    assert m.ram.tree.encode() == before


def test_default_plan_uses_every_step_kind_and_no_other():
    from sealkit.sealing import default_plan

    plan = default_plan(build_server(19).config)
    assert {s.kind for steps in plan.values() for s in steps} == set(STEP_KINDS)


def test_unknown_step_kind_raises_key_error():
    host = build_server(20)
    host.boot()
    with pytest.raises(KeyError):
        host.exec_step(step("format_disk"))


def test_write_through_after_every_step():
    from sealkit.sealing import default_plan

    host = build_server(12)
    host.boot()
    for s in default_plan(host.config)[HOST]:
        host.exec_step(s)
        # serialize RAM tree; decrypting the volume must reproduce it exactly
        expected = host.ram.tree.encode()
        plain = b"".join(
            vol.read_sector(host.ram.handle, i)
            for i in range(host.root_volume.sector_count)
        )
        assert plain[: len(expected)] == expected, f"divergence after {s.command}"


def test_unchanged_write_through_after_boot_rewrites_no_sector(monkeypatch):
    host = build_server(16, ServerConfig(vm_sectors=4096))
    vm = host.nested_vm
    vm.boot()
    encoded = vm.ram.tree.encode()
    assert encoded.endswith(b"\x00")  # the content read at boot ends inside a zero run
    assert vm.ram.content == encoded.rstrip(b"\x00")
    written = []
    monkeypatch.setattr(vol, "write_sector", lambda h, i, data: written.append(i))
    node = vm.ram.tree.node("/etc/hostname")
    vm.write_file("/etc/hostname", bytes(bytearray(node.data)))  # equal bytes, another object
    assert written == []  # its commit diffs the unchanged tree against the boot content
    assert vm.ram.tree.node("/etc/hostname") is node
    assert vm.ram.content == encoded


def test_failed_write_below_a_file_leaves_a_bootable_volume():
    host = build_server(13)
    host.boot()
    before = host.ram.tree.encode()
    with pytest.raises(TreeError, match="parent is not a directory: /etc/hostname"):
        host.write_file("/etc/hostname/sub/x", b"1")
    assert host.ram.tree.encode() == before
    host.write_file("/etc/after.txt", b"written")
    expected = host.ram.tree.encode()
    host.power_off()
    host.boot()
    assert host.ram.tree.encode() == expected
    assert host.ram.tree.read_file("/etc/after.txt") == b"written"
    assert not host.ram.tree.exists("/etc/hostname/sub")


def listing_by_children(tree):
    """The per-directory ``children`` scan that render_listing must agree with."""
    out = []
    for path in tree.paths():
        if tree.is_dir(path):
            out.append(f"{path}:")
            for child in tree.children(path):
                node = tree.node(child)
                name = child.rsplit("/", 1)[-1]
                if isinstance(node, FileNode):
                    out.append(f"  -rw-r--r-- {len(node.data):>8} {name}")
                elif isinstance(node, SymlinkNode):
                    out.append(f"  lrwxrwxrwx        0 {name} -> {node.target}")
                else:
                    out.append(f"  drwxr-xr-x        - {name}/")
    return "\n".join(out) + "\n"


def test_render_listing_matches_per_directory_scan():
    host = build_server(17)
    host.boot()
    host.write_file("/etc/a-b/c", b"sorts between /etc/a and /etc/a/")
    host.write_file("/etc/a/deep/er/file", b"x" * 1234)
    host.ram.tree.symlink("/etc/a/link", "../a-b/c")
    host.ram.tree.mkdir("/empty")
    view = host.full_view()
    assert render_listing(view) == listing_by_children(view)
    assert render_listing(view).startswith("/:\n  drwxr-xr-x        - /\n")


def test_no_keyfile_bytes_in_encrypted_tree():
    host = build_server(13)
    host.boot()
    keyfile = host.boot_partition.read_file("/keyfile")
    assert keyfile not in host.ram.tree.encode()


def test_write_beyond_capacity_raises_disk_full():
    host = build_server(14)
    host.boot()
    capacity = host.root_volume.sector_count * vol.SECTOR_BYTES
    sectors, content = list(host.root_volume.sectors), host.ram.content
    tree = host.ram.tree.encode()
    with pytest.raises(DiskFull):
        host.write_file("/root/big.bin", b"x" * capacity)
    assert host.root_volume.sectors == sectors
    assert host.ram.content == content
    assert host.ram.tree.encode() == tree  # the RAM tree goes back to what the disk holds


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
    assert serialized(again.root) == serialized(images.root)
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
    assert images.root.header.active_slots() == []


def test_restore_after_sealing_makes_machine_bootable():
    host = build_server(18)
    images = host.snapshot_image()
    vm_images = host.nested_vm.snapshot_image()
    seal_all(host)
    host.power_off()
    host.restore_image(images)
    host.nested_vm.restore_image(vm_images)
    host.boot()
    host.nested_vm.boot()
    assert host.is_on and host.nested_vm.is_on


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
    assert serialized(loaded.root) == serialized(images.root)
    assert loaded.boot.encode() == images.boot.encode()


def test_saved_volume_files_are_the_serialized_containers(tmp_path):
    host = build_server(21)
    vault = vol.format_volume(3, vol.Keyfile.generate(host.rng), host.rng,
                              kdf_iterations=10).volume
    images = DiskImagePair(boot=host.boot_partition, root=host.root_volume, extras=[vault])
    save_images(images, tmp_path)
    assert (tmp_path / "root.tsvol").read_bytes() == serialized(host.root_volume)
    assert (tmp_path / "extra0.tsvol").read_bytes() == serialized(vault)
    assert serialized(load_images(tmp_path).extras[0]) == serialized(vault)
    # Twelve extras come back in index order: extra10 sorts before extra2 by name.
    extras = [vol.format_volume(n, vol.Keyfile.generate(host.rng), host.rng,
                                kdf_iterations=10).volume for n in range(1, 13)]
    save_images(DiskImagePair(boot=host.boot_partition, root=host.root_volume, extras=extras),
                tmp_path / "twelve")
    loaded = load_images(tmp_path / "twelve").extras
    assert [v.sector_count for v in loaded] == list(range(1, 13))
    assert [serialized(v) for v in loaded] == [serialized(v) for v in extras]
    # A later save with fewer extras into the same directory leaves none of the old ones.
    save_images(DiskImagePair(boot=host.boot_partition, root=host.root_volume, extras=[vault]),
                tmp_path / "twelve")
    assert [serialized(v) for v in load_images(tmp_path / "twelve").extras] == [serialized(vault)]
    save_images(DiskImagePair(boot=host.boot_partition, root=host.root_volume),
                tmp_path / "twelve")
    assert not list((tmp_path / "twelve").glob("extra*"))


def test_load_images_holds_no_second_copy_of_the_sectors(tmp_path):
    keyfile = vol.Keyfile.generate(make_rng(5))
    root = vol.format_volume(32768, keyfile, make_rng(5), kdf_iterations=10).volume
    save_images(DiskImagePair(boot=FileTree(), root=root), tmp_path)
    del root
    tracemalloc.start()
    try:
        loaded = load_images(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.root.sectors) == 32768
    assert peak < 1.15 * 32768 * vol.SECTOR_RECORD_BYTES


def test_tree_ending_in_a_zero_run_survives_boot_and_image_reads():
    host = build_server(23)
    host.boot()
    # The last record in path order ends in zero sectors, which read_image leaves out.
    host.write_file("/zzz", bytes(3 * vol.SECTOR_BYTES))
    tree = host.ram.tree.copy()
    host.power_off()
    assert full_tree_from_images(host.snapshot_image()).read_file("/zzz") == bytes(
        3 * vol.SECTOR_BYTES)
    host.boot()
    assert host.ram.tree == tree


def test_full_tree_from_images_mounts_boot():
    host = build_server(22)
    tree = full_tree_from_images(host.snapshot_image())
    assert tree.is_file("/boot/keyfile")
    assert tree.is_file("/etc/passwd")
