from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from conftest import SMALL, build_sealed, build_server

from sealkit.machine import full_tree_from_images
from sealkit.manifest import (
    MissingRoot,
    compute_manifest,
    diff_manifests,
    parse_manifest,
)
from sealkit.sealing import HOST_LOG_NAME, PublishedBundle, default_plan, render_log, seal_all
from sealkit.tree import FileTree
from sealkit.verifier import (
    MalformedBundle,
    MalformedLog,
    default_policy,
    extract_evidence,
    parse_sealing_log,
    verify_seal,
)


def clean_run(seed):
    host, vm, host_images, vm_images, bundle = build_sealed(seed)
    policy = default_policy(default_plan(host.config))
    return host, vm, host_images, vm_images, bundle, policy


# -- compute_manifest ---------------------------------------------------------


def test_empty_tree_empty_manifest():
    tree = FileTree()
    tree.mkdir("/etc")
    manifest = compute_manifest(tree, ["/etc"])
    assert manifest.entries == ()


def test_identical_content_identical_digest_distinct_paths():
    tree = FileTree()
    tree.write_file("/a/x", b"same")
    tree.write_file("/a/y", b"same")
    manifest = compute_manifest(tree, ["/a"])
    digests = manifest.as_dict()
    assert digests["/a/x"] == digests["/a/y"]
    assert set(digests) == {"/a/x", "/a/y"}


def test_symlink_cycle_terminates_and_hashes_target_string():
    tree = FileTree()
    tree.write_file("/usr/bin/env", b"binary")
    tree.symlink("/usr/bin/X11", ".")
    manifest = compute_manifest(tree, ["/usr/bin"])
    # oracle: the symlink entry is the digest of its target string
    assert manifest.digest_of("/usr/bin/X11") == hashlib.sha3_512(b".").hexdigest()


def test_missing_root_raises():
    with pytest.raises(MissingRoot):
        compute_manifest(FileTree(), ["/absent"])


def test_manifest_render_format_and_parse():
    tree = FileTree()
    tree.write_file("/f", b"data")
    manifest = compute_manifest(tree, ["/f"])
    text = manifest.render()
    digest = hashlib.sha3_512(b"data").hexdigest()
    assert text == f"{digest}  /f\n"
    assert parse_manifest(text).entries == manifest.entries


def test_manifest_determinism_across_serialization(tmp_path):
    from sealkit.machine import load_images, save_images

    host = build_server(60)
    images = host.snapshot_image()
    roots = host.config.root_specs()
    first = compute_manifest(full_tree_from_images(images), roots)
    second = compute_manifest(full_tree_from_images(images), roots)
    assert first.render() == second.render()
    # identical through an image save/load round trip
    save_images(images, tmp_path / "img")
    reloaded = compute_manifest(full_tree_from_images(load_images(tmp_path / "img")), roots)
    assert reloaded.render() == first.render()


# -- diff_manifests ------------------------------------------------------------


def test_diff_identity_is_empty():
    tree = FileTree()
    tree.write_file("/f", b"x")
    m = compute_manifest(tree, ["/f"])
    assert diff_manifests(m, m).empty


def test_diff_detects_added_file():
    tree = FileTree()
    tree.write_file("/a/x", b"1")
    before = compute_manifest(tree, ["/a"])
    tree.write_file("/a/new", b"2")
    after = compute_manifest(tree, ["/a"])
    diff = diff_manifests(before, after)
    assert diff.added == {"/a/new"} and not diff.removed and not diff.changed


def test_diff_detects_single_byte_change():
    tree = FileTree()
    tree.write_file("/a/x", b"payload-0")
    before = compute_manifest(tree, ["/a"])
    tree.write_file("/a/x", b"payload-1")
    after = compute_manifest(tree, ["/a"])
    # oracle: recompute the digest directly
    assert after.digest_of("/a/x") == hashlib.sha3_512(b"payload-1").hexdigest()
    assert diff_manifests(before, after).changed == {"/a/x"}


# -- parse_sealing_log ------------------------------------------------------------


def test_log_round_trip_identity():
    host, _, _, _, bundle, _ = clean_run(61)
    for text in (bundle.host_log_text, bundle.vm_log_text):
        parsed = parse_sealing_log(text)
        assert render_log(parsed) == text


def test_log_missing_erase_line_parses_without_evidence():
    _, _, _, _, bundle, _ = clean_run(62)
    lines = [
        l for l in bundle.host_log_text.splitlines()
        if not l.startswith("+ cryptsetup luksErase")
    ]
    parsed = parse_sealing_log("\n".join(lines))
    evidence = extract_evidence(parsed)
    assert evidence.erased_devices == []


def test_garbage_log_is_malformed():
    with pytest.raises(MalformedLog) as excinfo:
        parse_sealing_log("this is not a sealing log\nat all\n")
    assert excinfo.value.lineno == 1
    with pytest.raises(MalformedLog):
        parse_sealing_log("")


# -- default_policy -----------------------------------------------------------------


def test_policy_admits_passwd_change_but_not_sbin_additions():
    policy = default_policy(default_plan(SMALL))
    assert policy.allows("change", "/etc/passwd")
    assert not policy.allows("add", "/usr/sbin/backdoor")
    assert policy.allows("remove", "/etc/ssh/sshd_config")
    assert policy.allows("add", "/var/www/log/etc-vm.zip")


def test_policy_default_additions_are_the_plan_destinations():
    policy = default_policy(default_plan(SMALL))
    assert policy.may_add == (
        "/home/trust/date.txt",
        "/var/www/log/*",
        "/var/www/log/etc-vm.zip",
        "/var/www/log/ldap.txt",
        "/var/www/log/trust-vm.zip",
    )


def test_policy_follows_a_non_default_webroot():
    config = replace(SMALL, webroot="/srv/pub")
    policy = default_policy(default_plan(config))
    assert policy.allows("add", f"/srv/pub/{HOST_LOG_NAME}")
    assert not policy.allows("add", "/var/www/log/x")
    _, _, host_images, vm_images, bundle = build_sealed(70, config)
    assert verify_seal(host_images, vm_images, bundle, policy).status == "PASS"


def test_policy_for_empty_plan_admits_nothing():
    from sealkit.sealing import SealingPlan

    policy = default_policy(SealingPlan(host_steps=(), vm_steps=()))
    assert policy.may_change == () and policy.may_add == () and policy.may_remove == ()
    assert not policy.allows("change", "/etc/passwd")


# -- verify_seal ---------------------------------------------------------------------


def test_clean_seal_passes_with_zero_errors():
    _, _, host_images, vm_images, bundle, policy = clean_run(63)
    verdict = verify_seal(host_images, vm_images, bundle, policy)
    assert verdict.status == "PASS"
    assert verdict.errors == []


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
    assert any(f.subject == "/usr/sbin/cron" for f in verdict.errors)


def test_log_with_erase_removed_fails_as_missing_critical_step():
    _, _, host_images, vm_images, bundle, policy = clean_run(65)
    mangled = "\n".join(
        l for l in bundle.host_log_text.splitlines()
        if not l.startswith("+ cryptsetup luksErase")
    ) + "\n"
    artifacts = dict(bundle.artifacts)
    artifacts[HOST_LOG_NAME] = mangled.encode()
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle(artifacts=artifacts), policy)
    assert verdict.status == "FAIL"
    assert any("missing critical step" in f.explanation for f in verdict.errors)


def test_bundle_missing_log_is_malformed():
    _, _, host_images, vm_images, bundle, policy = clean_run(66)
    artifacts = dict(bundle.artifacts)
    del artifacts[HOST_LOG_NAME]
    with pytest.raises(MalformedBundle):
        verify_seal(host_images, vm_images, PublishedBundle(artifacts=artifacts), policy)


def test_escrow_share_in_bundle_is_flagged():
    from sealkit.escrow import SHARE_MAGIC

    _, _, host_images, vm_images, bundle, policy = clean_run(67)
    artifacts = dict(bundle.artifacts)
    artifacts["oops.tsshare"] = SHARE_MAGIC + b"\x00" * 16
    verdict = verify_seal(host_images, vm_images,
                          PublishedBundle(artifacts=artifacts), policy)
    assert any("escrow share" in f.explanation for f in verdict.errors)


def test_verdict_renders_text_and_dict():
    _, _, host_images, vm_images, bundle, policy = clean_run(68)
    verdict = verify_seal(host_images, vm_images, bundle, policy)
    text = verdict.render_text()
    assert text.startswith("VERDICT: PASS")
    assert "undetectable" in text  # the scope preamble
    doc = verdict.to_dict()
    assert doc["status"] == "PASS" and doc["findings"] == []
