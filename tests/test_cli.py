from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_server
from sealkit import cli
from sealkit import volume as vol
from sealkit.cli import run_command
from sealkit.config import ConfigError, ServerConfig, parse_config
from sealkit.machine import save_images
from sealkit.sealing import HOST_LOG_NAME, seal_all


def wd(tmp_path, *extra):
    """The workdir flag alone, for commands that draw no randomness (verify)."""
    return ["--workdir", str(tmp_path), *extra]


def ws(tmp_path, *extra):
    return wd(tmp_path, "--seed", "21", *extra)


def seal_workdir(tmp_path):
    assert run_command(["seal", *ws(tmp_path)]) == 0


# -- config file ------------------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(
        """
        # comment
        mail_to = ops@example.org
        host_sectors = 192
        ldap_user.alice = secret
        dns.internal.test = 10.1.2.3
        """
    )
    assert cfg.mail_to == "ops@example.org"
    assert ("alice", "secret") in cfg.ldap_users
    assert ("internal.test", "10.1.2.3") in cfg.dns_table


def test_a_hash_starts_a_comment_only_at_line_start_or_after_whitespace():
    cfg = parse_config("ldap_user.a = p#w\nmail_to = a#b@example.org\n"
                       "vm_name = v # the rest is a comment\n#whole = line\n")
    assert ("a", "p#w") in cfg.ldap_users
    assert cfg.mail_to == "a#b@example.org"
    assert cfg.vm_name == "v"


# Configs that used to fail only late: either webroot sealed both machines and then
# published nothing, and an empty vault failed when `serve` formatted it.
REFUSED_CONFIGS = {
    "webroot = /var/www/log/": "webroot must be a normalized directory below /",
    "webroot = /": "webroot must be a normalized directory below /",
    "vault_sectors = 0": "sector counts must be positive",
    "hash_roots = /etc,/usr/bin/": "hash root must be a normalized absolute path",
    # A user that no AUTH line can name; the one with ':' crashed `serve` on its replica.
    "ldap_user.a:b = pw": "ldap user name must be non-empty, without whitespace or ':'",
    "ldap_user. = pw": "ldap user name must be non-empty, without whitespace or ':'",
    "ldap_user.a b = pw": "ldap user name must be non-empty, without whitespace or ':'",
    "ldap_user.a =": "ldap password of a must be non-empty, without whitespace",
    "ldap_user.a = p w": "ldap password of a must be non-empty, without whitespace",
    # A domain that no RESOLVE line can name.
    "dns.a b = 1.2.3.4": "dns domain must be non-empty, without whitespace",
    "dns. = 1.2.3.4": "dns domain must be non-empty, without whitespace",
    # RESOLVE would answer `OK ` with no address, or with two.
    "dns.x =": "dns address of x must be non-empty, without whitespace",
    "dns.y = 1.2.3.4 5.6.7.8": "dns address of y must be non-empty, without whitespace",
}


def test_parse_config_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("host_ssh_rule_index = 4")  # derived from the rule table
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("millionaires_order = ascending")  # the ranking is always descending
    with pytest.raises(ConfigError):
        parse_config("host_sectors = many")
    with pytest.raises(ConfigError):
        parse_config("mail_to = not-an-address")
    with pytest.raises(ConfigError):
        parse_config("just a line")
    for text, message in REFUSED_CONFIGS.items():
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


def test_default_config_is_valid():
    ServerConfig()


@pytest.mark.parametrize("root", ["/usr//bin", "/usr/./bin", "/usr/lib/../bin", "usr/bin"])
def test_config_refuses_a_hash_root_that_is_not_normalized(root):
    # /usr/bin is hashed non-recursively only under its exact name.
    with pytest.raises(ConfigError, match="hash root must be a normalized absolute path"):
        ServerConfig(hash_roots=("/etc", root))


ALT_CONFIG = """
webroot = /srv/pub
vm_name = tsvm2
mail_to = ops@example.net
"""


def test_non_default_config_holds_through_the_image_path(tmp_path, capsys):
    conf = tmp_path / "alt.conf"
    conf.write_text(ALT_CONFIG)
    args = ws(tmp_path, "--config", str(conf), "--json")
    verify_args = wd(tmp_path, "--config", str(conf), "--json")
    assert run_command(["build", *args]) == 0
    capsys.readouterr()
    assert run_command(["seal", *args]) == 0
    sealed = json.loads(capsys.readouterr().out)
    assert "virsh start tsvm2" in (tmp_path / "bundle" / HOST_LOG_NAME).read_text()
    assert run_command(["verify", *verify_args]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "PASS"
    assert run_command(["seal", *args]) == 0
    resealed = json.loads(capsys.readouterr().out)
    assert resealed["bundle_index_digest"] == sealed["bundle_index_digest"]


# -- exit codes ----------------------------------------------------------------------


def test_seal_then_verify_exits_zero(tmp_path, capsys):
    seal_workdir(tmp_path)
    assert run_command(["verify", *wd(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: PASS" in out


def test_verify_tampered_bundle_exits_one(tmp_path, capsys):
    seal_workdir(tmp_path)
    log_path = tmp_path / "bundle" / HOST_LOG_NAME
    text = log_path.read_text()
    log_path.write_text(
        "\n".join(l for l in text.splitlines()
                  if not l.startswith("+ cryptsetup luksErase")) + "\n"
    )
    assert run_command(["verify", *wd(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "missing critical step" in out


def test_verify_non_utf8_log_exits_one_as_malformed_bundle(tmp_path, capsys):
    seal_workdir(tmp_path)
    (tmp_path / "bundle" / HOST_LOG_NAME).write_bytes(b"+ iptables -P OUTPUT DROP\n\xff\xfe\n")
    capsys.readouterr()
    assert run_command(["verify", *wd(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: malformed bundle: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("image, offset", [("vm/root.tsvol", 20), ("host/boot.tree", 13)],
                         ids=["volume-header", "boot-tree"])
def test_verify_corrupt_image_exits_one_without_traceback(tmp_path, capsys, image, offset):
    argv = ["--workdir", str(tmp_path), "--seed", "3"]
    assert run_command(["build", *argv]) == 0
    assert run_command(["seal", *argv]) == 0
    capsys.readouterr()
    path = tmp_path / "images" / image
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    assert run_command(["verify", *wd(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sealkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _edit_host_root_header(tmp_path, edit) -> None:
    """Rewrite the host's pre-seal root.tsvol with edit(header record) applied, canonically."""
    path = tmp_path / "images" / "host" / "root.tsvol"
    blob = path.read_bytes()
    start = len(vol.VOLUME_MAGIC) + 4
    end = start + int.from_bytes(blob[len(vol.VOLUME_MAGIC):start], "big")
    doc = json.loads(blob[start:end])
    assert doc["slots"][0]["state"] == "active"
    edit(doc)
    record = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(vol.VOLUME_MAGIC + len(record).to_bytes(4, "big") + record + blob[end:])


def test_verify_refuses_a_slot_kdf_count_past_the_limit_before_any_kdf(tmp_path, capsys,
                                                                       monkeypatch):
    """A pre-seal image whose header asks for 2**32 + 1 iterations is refused by the
    loader, so the auditor never starts that unlock."""
    seal_workdir(tmp_path)
    capsys.readouterr()
    _edit_host_root_header(tmp_path, lambda doc: doc["slots"][0].update(kdf_iterations=2**32 + 1))
    kdf = vol._kdf

    def bounded_kdf(passphrase, salt, iterations):
        assert iterations <= vol.MAX_KDF_ITERATIONS
        return kdf(passphrase, salt, iterations)

    monkeypatch.setattr(vol, "_kdf", bounded_kdf)
    assert run_command(["verify", *wd(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"sealkit: KDF iteration count {2**32 + 1} exceeds {vol.MAX_KDF_ITERATIONS}\n"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["slots"][0].update(kdf_iterations=vol.MAX_KDF_ITERATIONS),
    lambda doc: doc["spec"].update(kdf_iterations=vol.MAX_KDF_ITERATIONS),
], ids=["active-slot", "header"])
def test_verify_refuses_a_non_default_kdf_count_with_no_kdf_call(tmp_path, capsys, monkeypatch,
                                                                 edit):
    """2**31 - 1 iterations load, but one unlock at that count takes about half an
    hour: the verifier refuses any count but the default before it unlocks."""
    seal_workdir(tmp_path)
    capsys.readouterr()
    _edit_host_root_header(tmp_path, edit)
    calls = []
    monkeypatch.setattr(vol, "_kdf", lambda *args: calls.append(args))
    assert run_command(["verify", *wd(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("verify: malformed bundle: the host pre-seal root asks for KDF iteration "
                   f"counts [{vol.DEFAULT_KDF_ITERATIONS}, {vol.MAX_KDF_ITERATIONS}], "
                   f"not {vol.DEFAULT_KDF_ITERATIONS}\n")
    assert calls == []


def test_unknown_subcommand_exits_two(capsys):
    assert run_command(["frobnicate"]) == 2


def test_unknown_flag_exits_two(tmp_path):
    assert run_command(["seal", "--definitely-not-a-flag"]) == 2


# -- subcommands ----------------------------------------------------------------------


def test_build_writes_images(tmp_path):
    assert run_command(["build", *ws(tmp_path)]) == 0
    assert (tmp_path / "images" / "host" / "root.tsvol").exists()
    assert (tmp_path / "images" / "vm" / "boot.tree").exists()


def test_build_with_a_missing_hash_root_exits_one(tmp_path, capsys):
    conf = tmp_path / "roots.conf"
    conf.write_text("hash_roots = /etc, /nonexistent\n")
    assert run_command(["build", *ws(tmp_path, "--config", str(conf))]) == 1
    assert "hash root /nonexistent does not exist on ts-host" in capsys.readouterr().err
    assert not (tmp_path / "images").exists()


@pytest.mark.parametrize("text", REFUSED_CONFIGS,
                         ids=["webroot-trailing-slash", "webroot-root", "vault-sectors-zero",
                              "hash-root-trailing-slash", "ldap-user-colon", "ldap-user-empty",
                              "ldap-user-space", "ldap-password-empty", "ldap-password-space",
                              "dns-domain-space", "dns-domain-empty", "dns-address-empty",
                              "dns-address-space"])
def test_build_with_a_refused_config_exits_one_and_writes_no_images(tmp_path, capsys, text):
    conf = tmp_path / "refused.conf"
    conf.write_text(text)
    assert run_command(["build", *ws(tmp_path, "--config", str(conf))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sealkit: {REFUSED_CONFIGS[text]}") and err.count("\n") == 1
    assert not (tmp_path / "images").exists()


def test_build_with_hash_roots_that_miss_the_webroot_exits_one(tmp_path, capsys):
    # Both roots exist, but no manifest could record the published files.
    conf = tmp_path / "roots.conf"
    conf.write_text("hash_roots = /etc,/usr/bin\n")
    assert run_command(["build", *ws(tmp_path, "--config", str(conf))]) == 1
    err = capsys.readouterr().err
    assert err == ("sealkit: no hash root covers the webroot /var/www/log, "
                   "so no published file could be verified\n")
    assert not (tmp_path / "images").exists()


@pytest.mark.parametrize("text", ["hash_roots = /etc,/var", "hash_roots = /",
                                  "webroot = /srv\nhash_roots = /srv"])
def test_a_hash_root_at_or_above_the_webroot_covers_it(tmp_path, text):
    conf = tmp_path / "roots.conf"
    conf.write_text(text)
    assert run_command(["build", *ws(tmp_path, "--config", str(conf))]) == 0


def test_seal_reuses_existing_images(tmp_path):
    assert run_command(["build", *ws(tmp_path)]) == 0
    before = (tmp_path / "images" / "host" / "root.tsvol").read_bytes()
    seal_workdir(tmp_path)
    assert (tmp_path / "images" / "host" / "root.tsvol").read_bytes() == before
    assert (tmp_path / "bundle" / "index.txt").exists()


def test_seal_with_escrow_writes_shares(tmp_path):
    assert run_command(["seal", *ws(tmp_path), "--escrow", "3"]) == 0
    shares = sorted((tmp_path / "shares").glob("share-*.tsshare"))
    assert len(shares) == 3


@pytest.mark.parametrize("parties", ["1", "-1"])
def test_seal_refuses_an_escrow_of_fewer_than_two_parties_before_any_step(
        tmp_path, capsys, monkeypatch, parties):
    assert run_command(["build", *ws(tmp_path)]) == 0
    capsys.readouterr()
    calls, kdf = [], vol._kdf
    monkeypatch.setattr(vol, "_kdf", lambda *args: calls.append(args) or kdf(*args))
    assert run_command(["seal", *ws(tmp_path), "--escrow", parties]) == 1
    assert capsys.readouterr().err == "sealkit: need at least 2 parties\n"
    assert calls == []
    assert not (tmp_path / "bundle").exists()


def test_escrow_split_requires_a_secret_source(tmp_path):
    assert run_command(["escrow", "split", "-n", "3",
                        "--out", str(tmp_path / "p")]) == 2
    assert run_command(["escrow", "split", "--secret-hex", "not-hex", "-n", "3",
                        "--out", str(tmp_path / "p")]) == 2


def test_escrow_split_recover_cycle(tmp_path, capsys):
    secret = "deadbeef" * 8
    out_dir = tmp_path / "parts"
    assert run_command(["escrow", "split", "--secret-hex", secret,
                        "-n", "4", "--out", str(out_dir), "--seed", "1"]) == 0
    shares = sorted(str(p) for p in out_dir.glob("*.tsshare"))
    capsys.readouterr()
    assert run_command(["escrow", "recover", *shares]) == 0
    assert capsys.readouterr().out.strip() == secret
    assert run_command(["escrow", "recover", *shares[:-1]]) == 1


def test_escrow_recover_corrupt_share_exits_one_without_traceback(tmp_path, capsys):
    out_dir = tmp_path / "parts"
    assert run_command(["escrow", "split", "--secret-hex", "deadbeef" * 8,
                        "-n", "2", "--out", str(out_dir), "--seed", "1"]) == 0
    shares = sorted(out_dir.glob("*.tsshare"))
    data = bytearray(shares[0].read_bytes())
    data[12] = 0xFF  # the index field's length prefix now overruns the file
    shares[0].write_bytes(bytes(data))
    capsys.readouterr()
    assert run_command(["escrow", "recover", *map(str, shares)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sealkit: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(shares[0]) in err and str(shares[1]) not in err


def test_escrow_recover_of_a_directory_exits_one_without_traceback(tmp_path, capsys):
    assert run_command(["escrow", "recover", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sealkit: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_restore_after_seal(tmp_path, capsys):
    """A seal leaves the pre-seal images as they were: the host's still unlocks
    and decodes, and the server seals again from them."""
    seal_workdir(tmp_path)
    assert run_command(["manifest", str(tmp_path / "images" / "host")]) == 0
    assert "/etc/passwd" in capsys.readouterr().out
    assert run_command(["seal", *ws(tmp_path)]) == 0


def test_restore_refuses_a_sealed_host_image(tmp_path, capsys):
    host = build_server(21)
    seal_all(host)
    host.power_off()
    save_images(host.snapshot_image(), tmp_path / "images" / "host")
    assert run_command(["manifest", str(tmp_path / "images" / "host")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "sealkit: all 8 keyslots are empty\n"


def test_restore_reseal_seed_controls_bundle_digest(tmp_path, capsys):
    seal_workdir(tmp_path)
    first = (tmp_path / "bundle" / "index.txt").read_text()
    # the same seed reproduces the identical bundle (determinism) ...
    assert run_command(["seal", *ws(tmp_path)]) == 0
    assert (tmp_path / "bundle" / "index.txt").read_text() == first
    # ... a fresh seed yields a fresh reencryption key and a new bundle
    assert run_command(["seal", "--workdir", str(tmp_path), "--seed", "22"]) == 0
    assert (tmp_path / "bundle" / "index.txt").read_text() != first


def test_attack_subcommand_json(tmp_path, capsys):
    assert run_command(["attack", "theft-reboot", "--seed", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["name"] == "theft-reboot"
    assert report[0]["ok"] is True


def test_attack_subcommand_text(capsys):
    assert run_command(["attack", "theft-reboot", "--seed", "2"]) == 0
    first, *details = capsys.readouterr().out.splitlines()
    assert first == "theft-reboot: expected attack-fails, observed attack-fails [ok]"
    assert len(details) == 3 and all(d.startswith("    ") for d in details)


def subcommands(argv: list[str]) -> dict:
    return cli.build_parser(argv)._subparsers._group_actions[0].choices


EVERY_COMMAND = ["build", "seal", "verify", "escrow", "serve", "attack", "manifest"]


def test_per_command_parser_answers_as_the_full_parser(tmp_path, capsys, monkeypatch):
    calls = [
        ["build", *ws(tmp_path)],
        ["seal", *ws(tmp_path), "--escrow", "2"],
        ["verify", *wd(tmp_path), "--json"],
        ["verify", *wd(tmp_path)],
        ["seal", "--definitely-not-a-flag"],
        ["attack", "all", "--json"],
        ["--help"],
        ["verify", "--help"],
        ["escrow", "split", "--help"],
        [],
        ["bogus"],
        ["escrow"],
        ["manifest"],
        ["--not-a-global-flag", "verify", "--json"],
    ]

    def outcomes():
        results = []
        for argv in calls:
            rc = run_command(argv)
            results.append((rc, *capsys.readouterr()))
        return results

    per_command = outcomes()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser(EVERY_COMMAND))
    full = outcomes()
    assert [rc for rc, _, _ in per_command] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 2, 2, 2, 2]
    assert per_command == full


def test_a_command_builds_only_its_own_subparser():
    listed = subcommands(["verify", "--seed", "1"])
    assert list(listed) == EVERY_COMMAND
    assert {name for name, parser in listed.items() if parser._actions} == {"verify"}
    assert not any(parser._actions for parser in subcommands([]).values())
    assert all(parser._actions for parser in subcommands(EVERY_COMMAND).values())


@pytest.mark.parametrize("command, flags", [
    ("build", {"--seed", "--workdir", "--config", "--json"}),
    ("seal", {"--seed", "--workdir", "--config", "--json", "--escrow"}),
    ("verify", {"--workdir", "--config", "--json"}),
    ("serve", {"--seed", "--config"}),
    ("attack", {"--seed", "--config", "--json"}),
    ("manifest", {"--config", "--output"}),
])
def test_a_command_takes_only_the_flags_its_handler_reads(command, flags):
    parser = subcommands([command])[command]
    taken = {o for action in parser._actions for o in action.option_strings if o.startswith("--")}
    assert taken == flags | {"--help"}


def test_attack_unknown_scenario_exits_two(capsys):
    assert run_command(["attack", "voodoo"]) == 2


def test_manifest_subcommand(tmp_path, capsys):
    assert run_command(["build", *ws(tmp_path)]) == 0
    capsys.readouterr()
    assert run_command(["manifest", str(tmp_path / "images" / "vm")]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines and all("  /" in l for l in lines)
    digest, path = lines[0].split("  ", 1)
    assert len(digest) == 128 and path.startswith("/")
    paths = [l.split("  ", 1)[1] for l in lines]
    assert paths == sorted(paths)  # sorted bytewise by path


def test_manifest_of_a_missing_hash_root_exits_one_without_traceback(tmp_path, capsys):
    assert run_command(["build", *ws(tmp_path)]) == 0
    conf = tmp_path / "roots.conf"
    conf.write_text("hash_roots = /etc, /nonexistent\n")
    capsys.readouterr()
    assert run_command(["manifest", str(tmp_path / "images" / "vm"), "--config", str(conf)]) == 1
    assert capsys.readouterr().err == "sealkit: hash root /nonexistent does not exist\n"


def test_verify_json_output(tmp_path, capsys):
    seal_workdir(tmp_path)
    capsys.readouterr()
    assert run_command(["verify", *wd(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "PASS"
    assert "/etc/passwd" in doc["policy"]["may_change"]  # reviewable allowlist


def test_verify_into_a_closed_pipe_exits_one_without_traceback(tmp_path):
    seal_workdir(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write, as after `| head -c1`
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        done = subprocess.run([sys.executable, "-m", "sealkit", "verify", *wd(tmp_path), "--json"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_serve_answers_a_non_utf8_line_and_the_next_one():
    src = str(Path(cli.__file__).parents[1])
    # text-mode stdin decodes with surrogateescape under the C locale, strictly under the other
    for stdin_env in ({"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}):
        env = {**os.environ, **stdin_env, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "sealkit", "serve", "--seed", "1"],
                              input=b"SUBMIT \xff\xfe 5\nAUTH a b\n", capture_output=True,
                              env=env, timeout=60)
        assert done.returncode == 0, (stdin_env, done.stderr)
        assert done.stdout.splitlines() == [b"ERR usage: request is not UTF-8", b"OK reject"]


def test_serve_refuses_an_ldap_user_with_a_colon(tmp_path, capsys, monkeypatch):
    import io

    config = tmp_path / "c.conf"
    config.write_text("ldap_user.a:b = pw\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"AUTH a:b pw\n")))
    assert run_command(["serve", "--seed", "1", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "sealkit: ldap user name must be non-empty, without whitespace or ':': 'a:b'\n"


def test_serve_accepts_a_password_holding_a_hash(tmp_path, capsys, monkeypatch):
    import io

    config = tmp_path / "c.conf"
    config.write_text("ldap_user.a = p#w\nhost_sectors = 192\nvm_sectors = 256\n"
                      "vault_sectors = 16\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"AUTH a p#w\nAUTH a p\n")))
    assert run_command(["serve", "--seed", "1", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK accept", "OK reject"]


def test_verify_without_workdir_contents_fails(tmp_path):
    assert run_command(["verify", "--workdir", str(tmp_path)]) == 1


def test_serve_loop(tmp_path, capsys, monkeypatch):
    import io

    config = tmp_path / "serve.cfg"
    config.write_text(
        "ldap_user.alice = secret\n"
        "dns.internal.test = 10.9.8.7\n"
        "host_sectors = 192\nvm_sectors = 256\nvault_sectors = 16\n"
    )
    requests = "\n".join([
        "SYNC",
        "AUTH alice secret",
        "SUBMIT Alice 700 alice secret",
        "SUBMIT Bob 300 alice secret",
        "PUBLISH",
        "RESOLVE internal.test",
        "RESOLVE unknown.test",
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(requests.encode())))
    assert run_command(["serve", "--seed", "9", "--config", str(config)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "OK 1",
        "OK accept",
        "OK 0",
        "OK 1",
        "OK Alice Bob",
        "OK 10.9.8.7",
        "ERR Unresolvable: unknown.test",
    ]
