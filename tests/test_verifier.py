from __future__ import annotations

import hashlib
import io
import json
import lzma
import os
import struct
import subprocess
import sys
import zipfile
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL, build_sealed, build_server

from sealkit import verifier
from sealkit import volume as vol
from sealkit.machine import (
    HOST,
    STAGES,
    VM,
    VM_ROOT_DEVICE_FROM_HOST,
    ZIP_READ_ERRORS,
    DiskImagePair,
    boot_keyfile,
    full_tree_from_images,
    read_volume_tree,
    unzip_to_map,
)
from sealkit.manifest import (
    MissingRoot,
    RootSpec,
    compute_manifest,
    diff_manifests,
    manifest_from_lines,
    render_manifest,
)
from sealkit.sealing import (
    HOST_LOG_NAME,
    VM_LOG_NAME,
    PublishedBundle,
    default_plan,
    render_log,
    seal_all,
    single_stage_host_plan,
)
from sealkit.tree import FileTree, TreeError
from sealkit.verifier import (
    Finding,
    MalformedBundle,
    MalformedLog,
    default_policy,
    extract_evidence,
    parse_sealing_log,
    verify_seal,
)
from sealkit.volume import VolumeError, deserialize_volume, serialize_volume


SSH_RULE = "-A INPUT -p tcp --dport 22 -j ACCEPT"


def clean_run(seed):
    host, vm, host_images, vm_images, bundle = build_sealed(seed)
    policy = default_policy(default_plan(host.config))
    return host, vm, host_images, vm_images, bundle, policy


# -- compute_manifest ---------------------------------------------------------


def test_empty_tree_empty_manifest():
    tree = FileTree()
    tree.mkdir("/etc")
    manifest = compute_manifest(tree, [RootSpec("/etc")])
    assert manifest == {}


def test_identical_content_identical_digest_distinct_paths():
    tree = FileTree()
    tree.write_file("/a/x", b"same")
    tree.write_file("/a/y", b"same")
    digests = compute_manifest(tree, [RootSpec("/a")])
    assert digests["/a/x"] == digests["/a/y"]
    assert set(digests) == {"/a/x", "/a/y"}


def test_symlink_cycle_terminates_and_hashes_target_string():
    tree = FileTree()
    tree.write_file("/usr/bin/env", b"binary")
    tree.symlink("/usr/bin/X11", ".")
    manifest = compute_manifest(tree, [RootSpec("/usr/bin")])
    # oracle: the symlink entry is the digest of its target string
    assert manifest.get("/usr/bin/X11") == hashlib.sha3_512(b".").hexdigest()


def test_missing_root_raises():
    with pytest.raises(MissingRoot):
        compute_manifest(FileTree(), [RootSpec("/absent")])


def test_manifest_render_format_and_parse():
    tree = FileTree()
    tree.write_file("/f", b"data")
    manifest = compute_manifest(tree, [RootSpec("/f")])
    text = render_manifest(manifest)
    digest = hashlib.sha3_512(b"data").hexdigest()
    assert text == f"{digest}  /f\n"
    assert list(manifest_from_lines(text.splitlines()).items()) == list(manifest.items())


def test_manifest_determinism_across_serialization(tmp_path):
    from sealkit.machine import load_images, save_images

    host = build_server(60)
    images = host.snapshot_image()
    roots = host.config.root_specs()
    first = compute_manifest(full_tree_from_images(images), roots)
    second = compute_manifest(full_tree_from_images(images), roots)
    assert render_manifest(first) == render_manifest(second)
    # identical through an image save/load round trip
    save_images(images, tmp_path / "img")
    reloaded = compute_manifest(full_tree_from_images(load_images(tmp_path / "img")), roots)
    assert render_manifest(reloaded) == render_manifest(first)


# -- diff_manifests ------------------------------------------------------------


def test_diff_identity_is_empty():
    tree = FileTree()
    tree.write_file("/f", b"x")
    m = compute_manifest(tree, [RootSpec("/f")])
    diff = diff_manifests(m, m)
    assert not (diff.added or diff.removed or diff.changed)


def test_diff_detects_added_file():
    tree = FileTree()
    tree.write_file("/a/x", b"1")
    before = compute_manifest(tree, [RootSpec("/a")])
    tree.write_file("/a/new", b"2")
    after = compute_manifest(tree, [RootSpec("/a")])
    diff = diff_manifests(before, after)
    assert diff.added == {"/a/new"} and not diff.removed and not diff.changed


def test_diff_detects_single_byte_change():
    tree = FileTree()
    tree.write_file("/a/x", b"payload-0")
    before = compute_manifest(tree, [RootSpec("/a")])
    tree.write_file("/a/x", b"payload-1")
    after = compute_manifest(tree, [RootSpec("/a")])
    # oracle: recompute the digest directly
    assert after.get("/a/x") == hashlib.sha3_512(b"payload-1").hexdigest()
    assert diff_manifests(before, after).changed == {"/a/x"}


# -- parse_sealing_log ------------------------------------------------------------


def test_log_round_trip_identity():
    host, _, _, _, bundle, _ = clean_run(61)
    for stage in STAGES:
        text = bundle.artifacts[stage.log_name].decode()
        parsed = parse_sealing_log(text)
        assert render_log(parsed) == text


def test_log_missing_erase_line_parses_without_evidence():
    _, _, _, _, bundle, _ = clean_run(62)
    lines = [
        l for l in bundle.artifacts[HOST.log_name].decode().splitlines()
        if not l.startswith("+ cryptsetup luksErase")
    ]
    parsed = parse_sealing_log("\n".join(lines))
    assert not any(r.command.startswith("cryptsetup luksErase") for r in parsed)
    assert f"cryptsetup luksDump {HOST.root_device}" in [r.command for r in parsed]
    planned = default_policy(default_plan(SMALL))["expected_host_commands"]
    assert extract_evidence(parsed, planned).last(f"cryptsetup luksDump {HOST.root_device}")


def test_garbage_log_is_malformed():
    with pytest.raises(MalformedLog) as excinfo:
        parse_sealing_log("this is not a sealing log\nat all\n")
    assert excinfo.value.lineno == 1
    with pytest.raises(MalformedLog):
        parse_sealing_log("")


# -- default_policy -----------------------------------------------------------------


def test_policy_admits_passwd_change_but_not_sbin_additions():
    policy = default_policy(default_plan(SMALL))
    assert verifier._allows(policy, "change", "/etc/passwd")
    assert not verifier._allows(policy, "add", "/usr/sbin/backdoor")
    assert verifier._allows(policy, "remove", "/etc/ssh/sshd_config")
    assert verifier._allows(policy, "add", "/var/www/log/etc-vm.zip")


def test_policy_default_additions_are_the_plan_destinations():
    policy = default_policy(default_plan(SMALL))
    assert policy["may_add"] == [
        "/home/trust/date.txt",
        "/var/www/log/*",
        "/var/www/log/etc-vm.zip",
        "/var/www/log/ldap.txt",
        "/var/www/log/trust-vm.zip",
    ]


def test_policy_follows_a_non_default_webroot():
    config = replace(SMALL, webroot="/srv/pub")
    policy = default_policy(default_plan(config))
    assert verifier._allows(policy, "add", f"/srv/pub/{HOST_LOG_NAME}")
    assert not verifier._allows(policy, "add", "/var/www/log/x")
    _, _, host_images, vm_images, bundle = build_sealed(70, config)
    assert verify_seal(host_images, vm_images, bundle, policy).status == "PASS"


def test_policy_for_empty_plan_admits_nothing():
    policy = default_policy({HOST: (), VM: ()})
    assert policy["may_change"] == policy["may_add"] == policy["may_remove"] == []
    assert not verifier._allows(policy, "change", "/etc/passwd")


def test_policy_takes_archives_and_critical_steps_from_the_plan():
    policy = default_policy(default_plan(SMALL))
    assert [tuple(archive.values()) for archive in policy["archives"]] == [
        ("etc-host.zip", HOST.kind, "/etc"),
        ("root-host.zip", HOST.kind, "/root"),
        ("etc-vm.zip", VM.kind, "/etc"),
        ("trust-vm.zip", VM.kind, "/home/trust"),
    ]
    assert policy["critical_commands"] == [
        f"cryptsetup luksErase {HOST.root_device}",
        f"cryptsetup-reencrypt -v -d /mnt/keyfile -l 512 {VM_ROOT_DEVICE_FROM_HOST}",
        f"cryptsetup luksErase {VM.root_device}",
    ]


class _ReadRecordingPolicy(dict):
    """A policy dict that notes each top-level key a check reads."""

    def __init__(self, policy: dict):
        super().__init__(policy)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_policy_dict_shows_every_field_the_checks_read():
    _, _, host_images, vm_images, bundle, policy = clean_run(66)
    recording = _ReadRecordingPolicy(policy)
    assert verify_seal(host_images, vm_images, bundle, recording).status == "PASS"
    assert recording.read == set(policy) - {"critical_commands"}
    # Which steps are critical matters only once a planned step is missing.
    log = bundle.artifacts[HOST_LOG_NAME].decode().splitlines(keepends=True)
    artifacts = {**bundle.artifacts, HOST_LOG_NAME: "".join(
        l for l in log if not l.startswith("+ cryptsetup luksErase")).encode()}
    assert verify_seal(host_images, vm_images, PublishedBundle(artifacts=artifacts),
                       recording).status == "FAIL"
    assert recording.read == set(policy)
    assert json.loads(json.dumps(policy)) == policy
    assert {f"expected_{stage.kind}_commands" for stage in STAGES} <= set(policy)
    assert policy["ldap_dump"] == "/var/www/log/ldap.txt"
    assert policy["archives"][0] == {"name": "etc-host.zip", "stage": "host", "root": "/etc"}


_HASH_ROOTS = [{"path": path, "recursive": path != "/usr/bin"} for path in (
    "/boot", "/etc", "/home", "/lib", "/root", "/sbin", "/srv", "/tmp", "/usr/bin",
    "/usr/lib", "/usr/local", "/usr/sbin", "/usr/share", "/var")]
_TREE_EVIDENCE = [
    "ls -RlA /",
    "rhash -r --sha3-512 /boot", "rhash -r --sha3-512 /etc", "rhash -r --sha3-512 /home",
    "rhash -r --sha3-512 /lib", "rhash -r --sha3-512 /root", "rhash -r --sha3-512 /sbin",
    "rhash -r --sha3-512 /srv", "rhash -r --sha3-512 /tmp", "rhash --sha3-512 /usr/bin/*",
    "rhash -r --sha3-512 /usr/lib", "rhash -r --sha3-512 /usr/local",
    "rhash -r --sha3-512 /usr/sbin", "rhash -r --sha3-512 /usr/share",
    "rhash -r --sha3-512 /var",
]
_HOST_LOCKDOWN = [
    "iptables -P OUTPUT DROP", "iptables -D INPUT 4", "iptables-save", "iptables -L -n",
    "cat /etc/hosts.allow", "cat /etc/hosts.deny", "apt-get -y purge openssh-server",
    "systemctl status sshd", "userdel -f trust", "cat /etc/passwd", "cat /etc/shadow",
    "cryptsetup luksErase /dev/sda2", "cryptsetup luksDump /dev/sda2",
]


def pinned_dual_stage_policy(w: str) -> dict:
    """``default_policy(default_plan(...))`` at SMALL with webroot ``w``."""
    return {
        "may_change": ["/etc/group", "/etc/passwd", "/etc/shadow"],
        "may_add": ["/home/trust/date.txt", f"{w}/*", f"{w}/etc-vm.zip", f"{w}/ldap.txt",
                    f"{w}/trust-vm.zip"],
        "may_remove": ["/etc/hosts.allow", "/etc/ssh/*", "/usr/sbin/sshd"],
        "expected_host_commands": [
            *_HOST_LOCKDOWN,
            "cryptsetup luksDump /dev/sdb2",
            "cryptsetup-reencrypt -v -d /mnt/keyfile -l 512 /dev/sdb2",
            "cryptsetup luksDump /dev/sdb2",
            "zip -r /mnt/etc-host.zip /etc", "zip -r /mnt/root-host.zip /root",
            *_TREE_EVIDENCE,
            "cp /root/0_init_trusted_mode_host.log /mnt", "virsh start tsvm",
        ],
        "expected_vm_commands": [
            "rm /etc/hosts.allow", "iptables -P OUTPUT DROP", "iptables -D INPUT 5",
            "iptables-save", "iptables -L -n", "cat /etc/hosts.allow", "cat /etc/hosts.deny",
            "apt-get -y purge openssh-server", "systemctl status sshd", "userdel -f trust",
            "cat /etc/passwd", "cat /etc/group", "cat /etc/shadow",
            "cryptsetup luksErase /dev/vda2", "cryptsetup luksDump /dev/vda2",
            f"mv /boot/0_init_trusted_mode_host.log {w}", f"mv /boot/etc-host.zip {w}",
            f"mv /boot/root-host.zip {w}", "chown www-data:www-data /var/www",
            f"zip -r {w}/etc-vm.zip /etc", f"zip -r {w}/trust-vm.zip /home/trust",
            f"date >> {w}/ldap.txt && slapcat >> {w}/ldap.txt",
            "chown -R www-data:www-data /var/www",
            *_TREE_EVIDENCE,
            "echo $(date) >> /home/trust/date.txt", "systemctl start apache2",
            'mail -s "trusted server running@203.0.113.80" auditor@example.org'
            " < /home/trust/date.txt",
        ],
        "hash_roots": _HASH_ROOTS,
        "ldap_dump": f"{w}/ldap.txt",
        "critical_commands": ["cryptsetup luksErase /dev/sda2",
                              "cryptsetup-reencrypt -v -d /mnt/keyfile -l 512 /dev/sdb2",
                              "cryptsetup luksErase /dev/vda2"],
        "archives": [{"name": "etc-host.zip", "stage": "host", "root": "/etc"},
                     {"name": "root-host.zip", "stage": "host", "root": "/root"},
                     {"name": "etc-vm.zip", "stage": "vm", "root": "/etc"},
                     {"name": "trust-vm.zip", "stage": "vm", "root": "/home/trust"}],
    }


@pytest.mark.parametrize("plan, expected", [
    (single_stage_host_plan(SMALL), {
        "may_change": ["/etc/group", "/etc/passwd", "/etc/shadow"],
        "may_add": [],
        "may_remove": ["/etc/ssh/*", "/usr/sbin/sshd"],
        "expected_host_commands": [*_HOST_LOCKDOWN, *_TREE_EVIDENCE],
        "expected_vm_commands": [],
        "hash_roots": _HASH_ROOTS,
        "ldap_dump": "",
        "critical_commands": ["cryptsetup luksErase /dev/sda2"],
        "archives": [],
    }),
    (default_plan(SMALL), pinned_dual_stage_policy("/var/www/log")),
    (default_plan(replace(SMALL, webroot="/srv/pub")), pinned_dual_stage_policy("/srv/pub")),
], ids=["single-stage-host", "default", "webroot-srv-pub"])
def test_policy_of_each_shipped_plan_is_pinned(plan, expected):
    """The policy is the JSON that ``verify --json`` prints, and nothing else."""
    policy = default_policy(plan)
    assert policy == expected
    assert json.loads(json.dumps(policy)) == policy


def test_archive_of_another_root_verifies_under_its_own_plan():
    host = build_server(71)
    host_images = host.snapshot_image()
    vm_images = host.nested_vm.snapshot_image()
    plan = default_plan(host.config)
    w = host.config.webroot
    vm_steps = tuple(
        replace(step, command=f"zip -r {w}/trust-vm.zip /srv/data",
                args={**step.args, "src": "/srv/data"})
        if step.args.get("dest_path") == f"{w}/trust-vm.zip" else step
        for step in plan[VM]
    )
    plan = {**plan, VM: vm_steps}
    bundle = seal_all(host, plan)
    assert "/srv/data/vm-secret.txt" in unzip_to_map(bundle.artifacts["trust-vm.zip"])
    verdict = verify_seal(host_images, vm_images, bundle, default_policy(plan))
    assert verdict.status == "PASS", verdict.render_text()


# -- verify_seal ---------------------------------------------------------------------


def test_clean_seal_passes_with_zero_errors():
    _, _, host_images, vm_images, bundle, policy = clean_run(63)
    verdict = verify_seal(host_images, vm_images, bundle, policy)
    assert verdict.status == "PASS"
    assert verdict.findings == []


def test_binary_tampered_before_sealing_fails_naming_path():
    host = build_server(64)
    host_images = host.snapshot_image()
    vm_images = host.nested_vm.snapshot_image()
    host.boot()
    host.write_file("/usr/sbin/cron", b"#!ELF trojaned cron binary\n")
    bundle = seal_all(host)
    policy = default_policy(default_plan(host.config))
    verdict = verify_seal(host_images, vm_images, bundle, policy)
    assert verdict.status == "FAIL"
    assert any(f.subject == "/usr/sbin/cron" for f in verdict.findings)


def test_log_with_erase_removed_fails_as_missing_critical_step():
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    mangled = "\n".join(
        l for l in bundle.artifacts[HOST.log_name].decode().splitlines()
        if not l.startswith("+ cryptsetup luksErase")
    ) + "\n"
    artifacts = dict(bundle.artifacts)
    artifacts[HOST_LOG_NAME] = mangled.encode()
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle(artifacts=artifacts), policy)
    assert verdict.status == "FAIL"
    assert any("missing critical step" in f.explanation for f in verdict.findings)


def test_bundle_missing_log_is_malformed():
    _, _, host_images, vm_images, bundle, policy = clean_run(66)
    artifacts = dict(bundle.artifacts)
    del artifacts[HOST_LOG_NAME]
    with pytest.raises(MalformedBundle):
        verify_seal(host_images, vm_images, PublishedBundle(artifacts=artifacts), policy)


def test_rhash_line_without_separator_is_malformed():
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    lines = bundle.artifacts[HOST.log_name].decode().splitlines()
    first = lines.index(next(l for l in lines if l.startswith("+ rhash"))) + 1
    lines[first] = lines[first].replace("  ", " ", 1)
    artifacts = dict(bundle.artifacts)
    artifacts[HOST_LOG_NAME] = ("\n".join(lines) + "\n").encode()
    with pytest.raises(MalformedBundle, match="two-space separator"):
        verify_seal(host_images, vm_images, PublishedBundle(artifacts=artifacts), policy)


def test_an_unplanned_rhash_record_is_not_evidence():
    """Its lines reach no manifest, so one without a separator is no malformed bundle."""
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    log = bundle.artifacts[HOST_LOG_NAME] + b"+ rhash --md5 /etc\nno separator here\n"
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle({**bundle.artifacts, HOST_LOG_NAME: log}), policy)
    assert not any(f.subject.startswith("/") for f in verdict.findings)


def test_non_utf8_host_log_is_malformed():
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    artifacts = dict(bundle.artifacts)
    artifacts[HOST_LOG_NAME] = bundle.artifacts[HOST_LOG_NAME] + b"\xff\xfe\n"
    with pytest.raises(MalformedBundle, match="utf-8"):
        verify_seal(host_images, vm_images, PublishedBundle(artifacts=artifacts), policy)


def test_published_ldap_dump_is_bound_to_the_vm_manifest():
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    assert policy["ldap_dump"] == "/var/www/log/ldap.txt"
    honest = bundle.artifacts["ldap.txt"]
    vm_log = bundle.artifacts[VM.log_name].decode()
    unhashed = "".join(l for l in vm_log.splitlines(keepends=True)
                       if not l.endswith(f"  {policy['ldap_dump']}\n"))
    assert unhashed != vm_log
    cases = {
        "replaced": {"ldap.txt": b"tampered\n"},
        "truncated": {"ldap.txt": honest[:-1]},
        "first byte flipped": {"ldap.txt": bytes([honest[0] ^ 1]) + honest[1:]},
        "missing": {"ldap.txt": None},
        "not in the manifest": {VM_LOG_NAME: unhashed.encode()},
    }
    for case, changes in cases.items():
        artifacts = {**bundle.artifacts, **changes}
        artifacts = {name: data for name, data in artifacts.items() if data is not None}
        verdict = verify_seal(host_images, vm_images, PublishedBundle(artifacts), policy)
        assert verdict.status == "FAIL", case
        assert [f.subject for f in verdict.findings] == ["ldap.txt"], case


def test_escrow_share_in_bundle_is_flagged():
    from sealkit.escrow import SHARE_MAGIC

    _, _, host_images, vm_images, bundle, policy = clean_run(67)
    artifacts = dict(bundle.artifacts)
    artifacts["oops.tsshare"] = SHARE_MAGIC + b"\x00" * 16
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle(artifacts=artifacts), policy)
    assert any("escrow share" in f.explanation for f in verdict.findings)


def test_verdict_renders_text_and_dict():
    _, _, host_images, vm_images, bundle, policy = clean_run(68)
    verdict = verify_seal(host_images, vm_images, bundle, policy)
    text = verdict.render_text()
    assert text.startswith("VERDICT: PASS")
    assert "undetectable" in text  # the scope preamble
    doc = verdict.to_dict()
    assert doc["status"] == "PASS" and doc["findings"] == []


@pytest.fixture(scope="module")
def seed5_seal():
    _, _, host_images, vm_images, bundle = build_sealed(5)
    return host_images, vm_images, bundle


def _without_path(images: DiskImagePair, path: str) -> DiskImagePair:
    """A copy of ``images`` whose root volume no longer holds ``path``."""
    images = images.copy()
    handle = vol.unlock(images.root, boot_keyfile(images.boot))
    tree, content = read_volume_tree(handle)
    tree.remove(path)
    vol.write_image(handle, tree.encode(), content)
    return images


@pytest.mark.parametrize("stage, path", [
    (HOST, "/root"),        # a hash root of check (5)
    (VM, "/srv"),           # a hash root of check (5)
    (VM, "/home/trust"),    # the source of trust-vm.zip, check (6)
], ids=["host-root", "vm-srv", "vm-home-trust"])
def test_a_pre_seal_image_without_a_planned_root_is_malformed(seed5_seal, stage, path):
    host_images, vm_images, bundle = seed5_seal
    images = {HOST: host_images, VM: vm_images}
    images[stage] = _without_path(images[stage], path)
    with pytest.raises(MalformedBundle, match=f"pre-seal images cannot be opened: .*{path}"):
        verify_seal(images[HOST], images[VM], bundle, default_policy(default_plan(SMALL)))


# -- the coverage map: which log records the verifier reads ---------------------------

_FIREWALL = "its output is empty: check (10) reads the rule dump and listing that show its effect"
_WRAPPERS = "no check reads the TCP wrapper files"
_STEP_ONLY = "its output is not evidence: check (1) reads only the record's place in the plan"

# Records whose output the verifier never reads: at SMALL seed 5, replacing that
# output alone leaves the honest bundle verifying PASS. Keyed by (stage, command);
# a command logged twice by one stage is one entry for both records.
UNREAD_RECORDS = {
    **{(stage, command): _FIREWALL
       for stage, delete in (("host", "iptables -D INPUT 4"), ("vm", "iptables -D INPUT 5"))
       for command in ("iptables -P OUTPUT DROP", delete)},
    ("host", "cat /etc/hosts.allow"): _WRAPPERS,
    ("host", "cat /etc/hosts.deny"): _WRAPPERS,
    ("vm", "rm /etc/hosts.allow"): _WRAPPERS,
    ("vm", "cat /etc/hosts.allow"): _WRAPPERS,
    ("vm", "cat /etc/hosts.deny"): _WRAPPERS,
    ("host", "apt-get -y purge openssh-server"):
        "check (4) needs the purge record, then reads only the ssh status probe",
    ("vm", "apt-get -y purge openssh-server"):
        "check (4) needs the purge record, then reads only the ssh status probe",
    ("host", "userdel -f trust"): _STEP_ONLY,
    ("vm", "userdel -f trust"): _STEP_ONLY,
    ("host", "cryptsetup luksErase /dev/sda2"): "check (2) reads the last keyslot dump instead",
    ("vm", "cryptsetup luksErase /dev/vda2"): "check (2) reads the last keyslot dump instead",
    ("host", "cryptsetup luksDump /dev/sdb2"):
        "no check reads the host's dumps of the VM disk, before or after reencryption",
    ("host", "cryptsetup-reencrypt -v -d /mnt/keyfile -l 512 /dev/sdb2"):
        "no check binds the reencryption to evidence",
    **{(stage, f"zip -r {dest} {src}"): "check (6) reads the published archive, not the zip listing"
       for stage, dest, src in (("host", "/mnt/etc-host.zip", "/etc"),
                                ("host", "/mnt/root-host.zip", "/root"),
                                ("vm", "/var/www/log/etc-vm.zip", "/etc"),
                                ("vm", "/var/www/log/trust-vm.zip", "/home/trust"))},
    ("host", "ls -RlA /"): "no check compares the file listing with the pre-seal tree",
    ("vm", "ls -RlA /"): "no check compares the file listing with the pre-seal tree",
    ("host", "cp /root/0_init_trusted_mode_host.log /mnt"): _STEP_ONLY,
    ("host", "virsh start tsvm"): _STEP_ONLY,
    ("vm", "mv /boot/0_init_trusted_mode_host.log /var/www/log"): _STEP_ONLY,
    ("vm", "mv /boot/etc-host.zip /var/www/log"): _STEP_ONLY,
    ("vm", "mv /boot/root-host.zip /var/www/log"): _STEP_ONLY,
    ("vm", "chown www-data:www-data /var/www"): _STEP_ONLY,
    ("vm", "chown -R www-data:www-data /var/www"): _STEP_ONLY,
    ("vm", "date >> /var/www/log/ldap.txt && slapcat >> /var/www/log/ldap.txt"):
        "check (8) reads the published ldap.txt, not this record",
    ("vm", "echo $(date) >> /home/trust/date.txt"): _STEP_ONLY,
    ("vm", "systemctl start apache2"): _STEP_ONLY,
    ("vm", 'mail -s "trusted server running@203.0.113.80" auditor@example.org '
           "< /home/trust/date.txt"): _STEP_ONLY,
}


def test_every_log_record_is_read_or_a_declared_gap(seed5_seal):
    """Replace each record's output in turn with ``tampered output``: the verdict
    is FAIL or MalformedBundle, unless the record is in UNREAD_RECORDS; and every
    record there still verifies PASS, so the table cannot go stale."""
    host_images, vm_images, bundle = seed5_seal
    policy = default_policy(default_plan(SMALL))
    passed, caught = set(), set()
    for stage in STAGES:
        log = parse_sealing_log(bundle.artifacts[stage.log_name].decode())
        for i, record in enumerate(log):
            tampered = [*log[:i], replace(record, output="tampered output"), *log[i + 1:]]
            artifacts = {**bundle.artifacts, stage.log_name: render_log(tampered).encode()}
            try:
                status = verify_seal(host_images, vm_images, PublishedBundle(artifacts),
                                     policy).status
            except MalformedBundle:
                status = "MalformedBundle"
            (passed if status == "PASS" else caught).add((stage.kind, record.command))
    assert passed - UNREAD_RECORDS.keys() == set(), "records no check reads, undeclared"
    assert UNREAD_RECORDS.keys() - (passed - caught) == set(), "declared gaps now caught"


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.kind)
def test_a_second_ssh_rule_in_the_pre_seal_rule_file_is_flagged(stage):
    """Sealing deletes the first ssh rule only. The second one shows in both
    listings, as an honest run on that image prints them, and is the only finding."""
    for seed in range(3):
        host = build_server(seed)
        machine = host if stage is HOST else host.nested_vm
        machine.boot()
        rules = machine.ram.tree.read_text(stage.rules_file)
        machine.write_file(stage.rules_file, rules.replace(
            "-A INPUT -j DROP", f"{SSH_RULE}\n-A INPUT -j DROP").encode())
        machine.power_off()
        host_images, vm_images = host.snapshot_image(), host.nested_vm.snapshot_image()
        verdict = verify_seal(host_images, vm_images, seal_all(host),
                              default_policy(default_plan(SMALL)))
        assert verdict.findings == [
            Finding("iptables-save", f"the {stage.kind} rules accept ssh: {SSH_RULE}")], seed


# -- one finding per tampering of an honest bundle ----------------------------------


def _log(name, edit):
    """The sealing log ``name`` with each record replaced by the records edit(record) lists."""
    def change(artifacts, keyfiles):
        log = [new for record in parse_sealing_log(artifacts[name].decode())
               for new in edit(record)]
        return {name: render_log(log).encode()}
    return change


def _drop(command):
    return lambda record: [] if record.command == command else [record]


def _with_output(prefix, rewrite):
    return lambda r: [replace(r, output=rewrite(r.output)) if r.command.startswith(prefix) else r]


def _zip(name, edit):
    """The archive ``name`` rebuilt after edit(members) changed its path -> bytes map."""
    def change(artifacts, keyfiles):
        members = unzip_to_map(artifacts[name])
        edit(members)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for path, data in members.items():
                zf.writestr(path.lstrip("/"), data)
        return {name: buf.getvalue()}
    return change


def _sshd_running(output):
    return "* sshd.service - OpenBSD Secure Shell server\n   Active: active (running)"


def _unlisted(path):
    return lambda output: "\n".join(l for l in output.splitlines() if not l.endswith(f"  {path}"))


def _lookalike(command, rewrite, lookalike, honest=lambda output: output):
    """The planned ``command``'s output rewritten, then a record of ``lookalike`` (an
    unplanned command, or ``command`` again) carrying honest(the honest output)."""
    return lambda r: ([replace(r, output=rewrite(r.output)),
                       replace(r, command=lookalike, output=honest(r.output))]
                      if r.command == command else [r])


def _user_eve(shell):
    return lambda output: f"{output}\neve:x:1001:1001:eve:/home/eve:{shell}"


def _without_line(prefix):
    return lambda output: "\n".join(l for l in output.splitlines() if not l.startswith(prefix))


def _with_ssh_rule(output):
    return output.replace("COMMIT", f"{SSH_RULE}\nCOMMIT")


def _slot_0_active(output):
    return output.replace("Key Slot 0: EMPTY", "Key Slot 0: ACTIVE")


def _cron_lines(output):
    return "\n".join(l for l in output.splitlines() if l.endswith("  /usr/sbin/cron"))


def _cron_trojaned(output):
    trojaned = hashlib.sha3_512(b"#!ELF trojaned cron binary\n").hexdigest()
    return "\n".join(f"{trojaned}  /usr/sbin/cron" if l.endswith("  /usr/sbin/cron") else l
                     for l in output.splitlines())


@pytest.fixture(scope="module")
def honest_seal():
    _, _, host_images, vm_images, bundle = build_sealed(69)
    return host_images, vm_images, bundle


@pytest.mark.parametrize("change, subject, explanation", [
    (_log(HOST_LOG_NAME, lambda r: [r, r] if r.command == "iptables-save" else [r]),
     "iptables-save", "appears more often in the host log than the plan requires"),
    (_log(HOST_LOG_NAME, _drop(f"cryptsetup luksDump {HOST.root_device}")),
     f"cryptsetup luksDump {HOST.root_device}",
     f"host log carries no keyslot dump for {HOST.root_device}"),
    (_log(VM_LOG_NAME, _drop(f"cryptsetup luksDump {VM.root_device}")),
     f"cryptsetup luksDump {VM.root_device}",
     f"vm log carries no keyslot dump for {VM.root_device}"),
    (_log(VM_LOG_NAME, _drop("cat /etc/passwd")),
     "cat /etc/passwd", "vm log carries no passwd listing"),
    (_log(HOST_LOG_NAME, _drop("cat /etc/passwd")),
     "cat /etc/passwd", "host log carries no passwd listing"),
    (_log(HOST_LOG_NAME, _drop("systemctl status sshd")),
     "systemctl status sshd", "host log carries no ssh status probe"),
    (_log(VM_LOG_NAME, _drop("systemctl status sshd")),
     "systemctl status sshd", "vm log carries no ssh status probe"),
    (_log(VM_LOG_NAME, _with_output("systemctl status sshd", _sshd_running)),
     "sshd", "ssh server still present after the vm seal"),
    (_log(HOST_LOG_NAME, _with_output("systemctl status sshd", _sshd_running)),
     "sshd", "ssh server still present after the host seal"),
    (_log(HOST_LOG_NAME, _with_output("rhash", _unlisted("/usr/sbin/cron"))),
     "/usr/sbin/cron", "disappeared during the host seal"),
    (_log(VM_LOG_NAME, _with_output("rhash", _unlisted("/usr/sbin/cron"))),
     "/usr/sbin/cron", "disappeared during the vm seal"),
    (_log(VM_LOG_NAME, _lookalike("systemctl status sshd", _sshd_running,
                                  "systemctl status sshd.service")),
     "sshd", "ssh server still present after the vm seal"),
    (_log(HOST_LOG_NAME, _lookalike(f"cryptsetup luksDump {HOST.root_device}", _slot_0_active,
                                    f"cryptsetup luksDump --header-backup-file x "
                                    f"{HOST.root_device}")),
     HOST.root_device, "keyslots [0] still active after the host seal"),
    (_log(HOST_LOG_NAME, _lookalike("rhash -r --sha3-512 /usr/sbin", _cron_trojaned,
                                    "rhash --sha3-512 /usr/sbin/cron", _cron_lines)),
     "/usr/sbin/cron", "content changed across the host seal"),
    (_log(HOST_LOG_NAME, _lookalike("rhash -r --sha3-512 /usr/sbin", _cron_trojaned,
                                    "rhash -r --sha3-512 /usr/sbin", _cron_lines)),
     "rhash -r --sha3-512 /usr/sbin",
     "appears more often in the host log than the plan requires"),
    (_log(HOST_LOG_NAME, _with_output(f"cryptsetup luksDump {HOST.root_device}",
                                      lambda o: o.replace("Key Slot 3: EMPTY", "Key Slot 3"))),
     HOST.root_device, "keyslots [3] still active after the host seal"),
    (lambda artifacts, keyfiles: {"etc-host.zip": b"not a zip archive\n"},
     "etc-host.zip", "archive cannot be read"),
    (_zip("etc-vm.zip", lambda members: members.update({"/etc/backdoor": b"x\n"})),
     "/etc/backdoor", "etc-vm.zip contains a file absent from the pre-seal image"),
    (_zip("etc-host.zip", lambda members: members.update({"/etc/hostname": b"evil\n"})),
     "/etc/hostname", "etc-host.zip content differs from the pre-seal image"),
    (_zip("trust-vm.zip", lambda members: members.pop("/home/trust/cron-reboot.sh")),
     "/home/trust/cron-reboot.sh",
     "missing from trust-vm.zip but present in the pre-seal image"),
    (lambda artifacts, keyfiles: {"root-host.zip": None},
     "root-host.zip", "archive missing from bundle"),
    (lambda artifacts, keyfiles: {"notes.txt": b"key: " + keyfiles[0]},
     "notes.txt", "keyfile bytes leaked into the bundle"),
    (lambda artifacts, keyfiles: {"notes.txt": b"key: " + keyfiles[1]},
     "notes.txt", "keyfile bytes leaked into the bundle"),
    (_log(VM_LOG_NAME, _with_output("cat /etc/passwd", _user_eve("/bin/zsh"))),
     "eve", "login-capable user survived the vm seal"),
    (_log(HOST_LOG_NAME, _with_output("cat /etc/passwd", _user_eve("/usr/bin/bash"))),
     "eve", "login-capable user survived the host seal"),
    (_log(VM_LOG_NAME, _with_output("cat /etc/passwd", _user_eve(""))),
     "eve", "login-capable user survived the vm seal"),
    (_log(VM_LOG_NAME, _with_output("cat /etc/passwd", lambda output: "")),
     "cat /etc/passwd", "the vm listing lacks the pre-seal lines of non-login accounts "
                        "root, www-data"),
    (_log(HOST_LOG_NAME, _with_output("cat /etc/shadow", _without_line("root:"))),
     "cat /etc/shadow", "the host listing lacks the pre-seal lines of non-login accounts root"),
    (_log(VM_LOG_NAME, _with_output("cat /etc/group", _without_line("www-data:"))),
     "cat /etc/group", "the vm listing lacks the pre-seal lines of non-login accounts www-data"),
    (_log(HOST_LOG_NAME, _drop("apt-get -y purge openssh-server")),
     "apt-get -y purge openssh-server", "host log carries no ssh purge step"),
    (_log(VM_LOG_NAME, _drop("apt-get -y purge openssh-server")),
     "apt-get -y purge openssh-server", "vm log carries no ssh purge step"),
    (_log(VM_LOG_NAME, _with_output("iptables-save", lambda o: o.replace("T DROP", "T ACCEPT"))),
     "iptables-save", "the vm OUTPUT policy is not DROP"),
    (_log(HOST_LOG_NAME, _with_output("iptables-save", lambda o: o.replace("T DROP [0:0]", "T"))),
     "iptables-save", "the host OUTPUT policy is not DROP"),
    (_log(HOST_LOG_NAME, _with_output("iptables-save", _with_ssh_rule)),
     "iptables-save", f"the host rules accept ssh: {SSH_RULE}"),
    (_log(VM_LOG_NAME, _with_output("iptables -L -n", lambda o: o.replace("DROP)", "ACCEPT)"))),
     "iptables -L -n", "differs from the vm iptables-save"),
    (_log(HOST_LOG_NAME, _with_output("iptables -L -n", _without_line("-A INPUT -i lo"))),
     "iptables -L -n", "differs from the host iptables-save"),
    (_log(HOST_LOG_NAME, _drop("iptables-save")),
     "iptables-save", "host log carries no rule dump"),
    (_log(VM_LOG_NAME, _drop("iptables -L -n")),
     "iptables -L -n", "vm log carries no rule listing"),
], ids=["duplicate-command", "no-keyslot-dump", "no-vm-keyslot-dump", "no-passwd-listing",
        "no-host-passwd-listing", "no-ssh-probe", "no-vm-ssh-probe", "ssh-still-present",
        "host-ssh-still-present", "file-disappeared", "vm-file-disappeared",
        "lookalike-ssh-probe", "lookalike-keyslot-dump", "lookalike-rhash", "repeated-rhash",
        "keyslot-line-without-state",
        "archive-unreadable", "archive-added-file", "archive-changed-file",
        "archive-dropped-file", "archive-missing", "keyfile-leaked", "vm-keyfile-leaked",
        "zsh-user", "host-usr-bin-bash-user", "empty-shell-user", "blank-vm-passwd-listing",
        "host-shadow-without-root", "vm-group-without-www-data", "no-ssh-purge",
        "no-vm-ssh-purge", "vm-output-accepted", "host-output-unnamed", "host-ssh-rule-saved",
        "vm-listing-output-accepted", "host-listing-without-a-rule", "no-rule-dump",
        "no-vm-rule-listing"])
def test_tampered_bundle_gives_its_finding(honest_seal, change, subject, explanation):
    """Each row tampers with one stage's evidence; a per-stage check has a row per stage.
    ``change`` gets the artifacts and the (host, vm) keyfiles."""
    host_images, vm_images, bundle = honest_seal
    changes = change(bundle.artifacts, (host_images.boot.read_file("/keyfile"),
                                        vm_images.boot.read_file("/keyfile")))
    artifacts = {name: data for name, data in {**bundle.artifacts, **changes}.items()
                 if data is not None}
    policy = default_policy(default_plan(SMALL))
    verdict = verify_seal(host_images, vm_images, PublishedBundle(artifacts), policy)
    assert Finding(subject, explanation) in verdict.findings
    assert verdict.status == "FAIL"


DOUBLED = ("iptables-save", "iptables -L -n", "systemctl status sshd", "ls -RlA /")


def doubled_record_findings() -> list[dict]:
    """The findings, as JSON data, for the seed-69 seal whose host log holds each
    record of a DOUBLED command twice."""
    _, _, host_images, vm_images, bundle = build_sealed(69)
    double = _log(HOST_LOG_NAME, lambda r: [r, r] if r.command in DOUBLED else [r])
    artifacts = {**bundle.artifacts, **double(bundle.artifacts, ())}
    verdict = verify_seal(host_images, vm_images, PublishedBundle(artifacts),
                          default_policy(default_plan(SMALL)))
    return verdict.to_dict()["findings"]


def test_repeat_errors_come_in_plan_order_under_any_hash_seed():
    path = [str(Path(verifier.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, test_verifier as t; print(json.dumps(t.doubled_record_findings()))"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        runs.append(json.loads(done.stdout))
    expected = [{"severity": "ERROR", "subject": command,
                 "explanation": "appears more often in the host log than the plan requires"}
                for command in DOUBLED]
    assert runs == [expected, expected]


def test_archive_findings_list_changed_then_added_then_removed(honest_seal):
    host_images, vm_images, bundle = honest_seal

    def edit(members):  # the changed member is stored after the added one
        members["/etc/aaa-backdoor"] = b"x\n"
        del members["/etc/hostname"]
        members["/etc/hostname"] = b"evil\n"
        del members["/etc/hosts.deny"]

    artifacts = {**bundle.artifacts, **_zip("etc-host.zip", edit)(bundle.artifacts, b"")}
    verdict = verify_seal(host_images, vm_images, PublishedBundle(artifacts),
                          default_policy(default_plan(SMALL)))
    assert [f.subject for f in verdict.findings if "etc-host.zip" in f.explanation] == [
        "/etc/hostname", "/etc/aaa-backdoor", "/etc/hosts.deny"]


# -- corrupt input: a finding, a verdict or a typed error, never a foreign one --------


def _put(blob: bytes, at: int, fmt: str, value: int) -> bytes:
    return blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt):]


def _zip_offsets(blob: bytes) -> dict[str, int]:
    """The first and last central directory entry, the end record, the first member's data."""
    name_len, extra_len = struct.unpack_from("<HH", blob, 26)
    return {"cd": blob.find(b"PK\x01\x02"), "last": blob.rfind(b"PK\x01\x02"),
            "end": blob.rfind(b"PK\x05\x06"), "data": 30 + name_len + extra_len}


# One honest archive per error class in ZIP_READ_ERRORS, each with a header field
# rewritten. A central directory entry holds the version needed at +6, the flags
# at +8, the method at +10, the sizes at +20 and +24 and the name at +46; the end
# record holds the directory's offset at +16. Bundle archives store their members.
# An LZMA member's data opens with a version, a properties size and properties.
CORRUPT_ARCHIVES = {
    "bad-directory-size": (zipfile.BadZipFile, lambda b, o: _put(b, o["end"] + 12, "<I", 1 << 30)),
    "encrypted-member": (RuntimeError, lambda b, o: _put(b, o["cd"] + 8, "<H", 1)),
    "unknown-method": (NotImplementedError, lambda b, o: _put(b, o["cd"] + 10, "<H", 99)),
    "future-version": (NotImplementedError, lambda b, o: _put(b, o["cd"] + 6, "<B", 99)),
    "negative-seek": (ValueError, lambda b, o: _put(
        b, o["end"] + 16, "<I", struct.unpack_from("<I", b, o["end"] + 16)[0] + 224)),
    "non-utf8-name": (UnicodeDecodeError, lambda b, o: _put(
        _put(b, o["cd"] + 8, "<H", 0x800), o["cd"] + 46, "<B", 0xFF)),
    "invalid-deflate-block": (zlib.error, lambda b, o: _put(
        _put(b, o["cd"] + 10, "<H", zipfile.ZIP_DEFLATED), o["data"], "<B", 0x07)),
    "bzip2-method": (OSError, lambda b, o: _put(b, o["cd"] + 10, "<H", zipfile.ZIP_BZIP2)),
    "lzma-bad-properties": (lzma.LZMAError, lambda b, o: _put(_put(_put(
        b, o["cd"] + 10, "<H", zipfile.ZIP_LZMA), o["data"], "<I", 5 << 16), o["data"] + 4,
        "<B", 0xFF)),
    "member-past-the-end": (EOFError, lambda b, o: _put(
        _put(b, o["last"] + 20, "<I", 1 << 24), o["last"] + 24, "<I", 1 << 24)),
}


def test_every_zip_read_error_is_reached_by_a_corrupt_archive():
    reached = {error for error, _ in CORRUPT_ARCHIVES.values()}
    assert all(any(issubclass(r, error) for r in reached) for error in ZIP_READ_ERRORS)


@pytest.mark.parametrize("case", CORRUPT_ARCHIVES)
def test_corrupt_archive_is_an_unreadable_archive_finding(honest_seal, case):
    host_images, vm_images, bundle = honest_seal
    error, edit = CORRUPT_ARCHIVES[case]
    blob = bundle.artifacts["etc-host.zip"]
    corrupt = edit(blob, _zip_offsets(blob))
    with pytest.raises(error):
        unzip_to_map(corrupt)
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle({**bundle.artifacts, "etc-host.zip": corrupt}),
                          default_policy(default_plan(SMALL)))
    assert Finding("etc-host.zip", "archive cannot be read") in verdict.findings


@pytest.mark.parametrize("name", ["unzip_to_map", "full_tree_from_images"])
def test_a_verifier_bug_surfaces_as_itself(honest_seal, monkeypatch, name):
    """Not as an unreadable archive, nor as pre-seal images that cannot be opened."""
    def bug(*args):
        raise TypeError("a bug in the verifier")

    monkeypatch.setattr(verifier, name, bug)
    host_images, vm_images, bundle = honest_seal
    with pytest.raises(TypeError, match="a bug in the verifier"):
        verify_seal(host_images, vm_images, bundle, default_policy(default_plan(SMALL)))


@pytest.fixture(scope="module")
def auditor_files(honest_seal):
    """Every file an auditor reads, as bytes: the bundle and both image directories."""
    host_images, vm_images, bundle = honest_seal
    files = {f"bundle/{name}": data for name, data in bundle.artifacts.items()}
    for stage, images in (("host", host_images), ("vm", vm_images)):
        files[f"{stage}/boot.tree"] = images.boot.encode()
        files[f"{stage}/root.tsvol"] = b"".join(serialize_volume(images.root))
    return files


def _load_image_pair(files: dict[str, bytes], stage: str) -> DiskImagePair:
    """What ``load_images`` reads from a stage's image directory."""
    return DiskImagePair(boot=FileTree.decode(files[f"{stage}/boot.tree"]),
                         root=deserialize_volume(io.BytesIO(files[f"{stage}/root.tsvol"])))


def _mutate(blob: bytes, kind: str, at: int, byte: int) -> bytes:
    at %= len(blob) + (kind == "insert")
    if kind == "replace":
        return blob[:at] + bytes([blob[at] ^ byte]) + blob[at + 1:]
    if kind == "truncate":
        return blob[:at]
    return blob[:at] + bytes([byte]) + blob[at:]


# Offsets near either end reach the headers, directories and end records.
OFFSETS = st.one_of(st.integers(0, 1023), st.integers(-1024, -1), st.integers(0, 1 << 20))


@settings(max_examples=300)
@given(st.data(), st.sampled_from(["replace", "truncate", "insert"]), OFFSETS,
       st.integers(1, 255))
def test_a_mutated_input_gives_a_verdict_or_a_typed_error(auditor_files, data, kind, at, byte):
    target = data.draw(st.sampled_from(sorted(auditor_files)))
    files = {**auditor_files, target: _mutate(auditor_files[target], kind, at, byte)}
    try:
        host_images, vm_images = (_load_image_pair(files, stage) for stage in ("host", "vm"))
    except (TreeError, VolumeError):
        return  # the image loader refuses the file
    bundle = PublishedBundle({name.removeprefix("bundle/"): blob
                              for name, blob in files.items() if name.startswith("bundle/")})
    try:
        verdict = verify_seal(host_images, vm_images, bundle,
                              default_policy(default_plan(SMALL)))
    except MalformedBundle:
        return
    assert verdict.status in ("PASS", "FAIL")
