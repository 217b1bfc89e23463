"""Operator entry point: build, seal, verify, escrow, serve, attack, manifest."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import escrow as escrow_mod
from .config import ConfigError, load_config
from .machine import (
    MachineError,
    full_tree_from_images,
    load_images,
    save_images,
)
from .volume import VolumeError
from .manifest import ManifestError, compute_manifest, render_manifest
from .scenarios import SCENARIOS, run_scenario
from .sealing import (
    PublishedBundle,
    ProtocolError,
    default_plan,
    prepare_trusted_server,
    seal_all_with_escrow,
    server_from_images,
)
from .services import CredentialDirectory, ServiceFrontend, UpstreamResolver, attach_data_vault
from .tree import TreeError
from .util import SimClock, make_rng
from .verifier import MalformedBundle, default_policy, verify_seal

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


_SHARED_FLAGS = {
    "seed": dict(type=int, default=None, help="deterministic RNG seed"),
    "workdir": dict(type=Path, default=Path("."),
                    help="directory for images, bundle, and shares"),
    "config": dict(type=Path, default=None, help="key-value config file"),
    "json": dict(action="store_true", help="machine-readable report on stdout"),
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give ``parser`` the shared flags its handler reads, by name."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _image_dirs(workdir: Path) -> tuple[Path, Path]:
    return workdir / "images" / "host", workdir / "images" / "vm"


def _build_server(args, config) -> tuple[Path, Path]:
    host = prepare_trusted_server(config, rng=make_rng(args.seed), clock=SimClock())
    host_dir, vm_dir = _image_dirs(args.workdir)
    save_images(host.snapshot_image(), host_dir)
    save_images(host.nested_vm.snapshot_image(), vm_dir)
    return host_dir, vm_dir


def cmd_build(args) -> int:
    config = load_config(args.config)
    host_dir, vm_dir = _build_server(args, config)
    _emit(
        {"host_images": str(host_dir), "vm_images": str(vm_dir)},
        args.json,
        [f"pre-seal images written: {host_dir} {vm_dir}"],
    )
    return EXIT_OK


def cmd_seal(args) -> int:
    config = load_config(args.config)
    host_dir, vm_dir = _image_dirs(args.workdir)
    if not (host_dir.exists() and vm_dir.exists()):
        _build_server(args, config)
    host = server_from_images(load_images(host_dir), load_images(vm_dir), config,
                              rng=make_rng(args.seed), clock=SimClock())
    bundle, shares = seal_all_with_escrow(host, args.escrow)
    bundle_dir = args.workdir / "bundle"
    digest = bundle.index_digest(bundle.save(bundle_dir))
    share_paths = [str(p) for p in escrow_mod.save_shares(shares, args.workdir / "shares")]
    _emit(
        {
            "bundle": str(bundle_dir),
            "bundle_index_digest": digest,
            "escrow_shares": share_paths,
        },
        args.json,
        [
            f"sealed; bundle written: {bundle_dir}",
            f"bundle index digest: {digest}",
        ]
        + [f"escrow share: {p}" for p in share_paths],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    host_dir, vm_dir = _image_dirs(args.workdir)
    bundle_dir = args.workdir / "bundle"
    if not (host_dir.exists() and vm_dir.exists() and bundle_dir.exists()):
        print("verify: images/ and bundle/ must both exist in the workdir",
              file=sys.stderr)
        return EXIT_FAIL
    policy = default_policy(default_plan(config))
    try:
        verdict = verify_seal(
            load_images(host_dir), load_images(vm_dir),
            PublishedBundle.load(bundle_dir), policy,
        )
    except MalformedBundle as exc:
        print(f"verify: malformed bundle: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        print(json.dumps({**verdict.to_dict(), "policy": policy}, indent=2, sort_keys=True))
    else:
        print(verdict.render_text(), end="")
    return EXIT_OK if verdict.status == "PASS" else EXIT_FAIL


def cmd_escrow(args) -> int:
    if args.escrow_action == "split":
        secret = args.secret_hex if args.secret_file is None else args.secret_file.read_bytes()
        shares = escrow_mod.split_key(secret, args.parties, make_rng(args.seed))
        escrow_mod.save_shares(shares, args.out)
        print(f"wrote {len(shares)} shares to {Path(args.out)}")
        return EXIT_OK

    secret = escrow_mod.reconstruct([escrow_mod.load_share(p) for p in args.shares])
    if args.out:
        Path(args.out).write_bytes(secret)
        print(f"secret written to {args.out}")
    else:
        print(secret.hex())
    return EXIT_OK


def cmd_attack(args) -> int:
    config = load_config(args.config)
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    seed = args.seed if args.seed is not None else 0
    reports = [run_scenario(name, seed, config) for name in names]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            marker = "ok" if r.ok else "MISMATCH"
            print(f"{r.name}: expected {r.expected}, observed {r.observed} [{marker}]")
            for detail in r.details:
                print(f"    {detail}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAIL


def cmd_manifest(args) -> int:
    config = load_config(args.config)
    tree = full_tree_from_images(load_images(Path(args.imagedir)))
    text = render_manifest(compute_manifest(tree, config.root_specs()))
    if args.output:
        Path(args.output).write_text(text)
        print(f"manifest written to {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_serve(args) -> int:
    config = load_config(args.config)
    rng = make_rng(args.seed)
    clock = SimClock()
    host = prepare_trusted_server(config, rng=rng, clock=clock)
    vm = host.nested_vm

    vault_key = attach_data_vault(
        vm, config.vault_sectors,
        {"/data/records.csv": b"id,value\n1,confidential\n"}, rng,
    )
    primary = CredentialDirectory.from_users(config.ldap_users, rng)
    upstream = UpstreamResolver(table=dict(config.dns_table))

    seal_all_with_escrow(host, 0)
    frontend = ServiceFrontend(
        vm,
        primary_directory=primary if primary.entries else None,
        upstream=upstream,
    )

    print("sealed server ready; one request per line, EOF ends the session",
          file=sys.stderr)
    print(f"vault key (data provider copy): {vault_key.data.hex()[:64]}...",
          file=sys.stderr)
    print(f"(full key: {vault_key.data.hex()})", file=sys.stderr)
    try:
        for line in sys.stdin.buffer:  # bytes, so no locale's strict decoding ends the session
            print(frontend.handle_line(line.decode("utf-8", "surrogateescape")), flush=True)
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The ``sealkit`` parser; only the subcommands that ``argv`` names get arguments.

    argparse dispatches only to a subcommand whose name is a token of
    ``argv``, so the others are listed (for usage, ``--help`` and the
    invalid-choice error) as bare parsers that nothing parses. A one-shot
    command then builds one subparser's arguments instead of all of them.
    """
    parser = argparse.ArgumentParser(
        prog="sealkit",
        description="Build, seal, verify, and attack simulated self-sealing servers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help_line: str) -> argparse.ArgumentParser | None:
        if name in argv:
            return sub.add_parser(name, help=help_line)
        sub.add_parser(name, help=help_line, add_help=False)
        return None

    if p_build := subcommand("build", "prepare a server and write pre-seal images"):
        _flags(p_build, "seed", "workdir", "config", "json")
        p_build.set_defaults(func=cmd_build)

    if p_seal := subcommand("seal", "run the dual-stage seal and publish the bundle"):
        _flags(p_seal, "seed", "workdir", "config", "json")
        p_seal.add_argument("--escrow", type=int, default=0, metavar="N",
                            help="split the VM key record into N escrow shares")
        p_seal.set_defaults(func=cmd_seal)

    if p_verify := subcommand("verify", "check the bundle against the pre-seal images"):
        _flags(p_verify, "workdir", "config", "json")
        p_verify.set_defaults(func=cmd_verify)

    if p_escrow := subcommand("escrow", "split or recover escrow shares"):
        escrow_sub = p_escrow.add_subparsers(dest="escrow_action", required=True)
        p_split = escrow_sub.add_parser("split")
        secret = p_split.add_mutually_exclusive_group(required=True)
        secret.add_argument("--secret-hex", type=bytes.fromhex)
        secret.add_argument("--secret-file", type=Path)
        p_split.add_argument("-n", "--parties", type=int, required=True)
        p_split.add_argument("--out", required=True, help="output directory for share files")
        p_split.add_argument("--seed", type=int, default=None)
        p_recover = escrow_sub.add_parser("recover")
        p_recover.add_argument("shares", nargs="+", help="share files")
        p_recover.add_argument("--out", default=None, help="write the secret to a file")
        p_escrow.set_defaults(func=cmd_escrow)

    if p_serve := subcommand("serve", "seal a server and answer line requests on stdin"):
        _flags(p_serve, "seed", "config")
        p_serve.set_defaults(func=cmd_serve)

    if p_attack := subcommand("attack", "run a named attack scenario"):
        p_attack.add_argument("scenario", choices=[*sorted(SCENARIOS), "all"],
                              help="scenario name or 'all'")
        _flags(p_attack, "seed", "config", "json")
        p_attack.set_defaults(func=cmd_attack)

    if p_manifest := subcommand("manifest", "compute the manifest of an image directory"):
        p_manifest.add_argument("imagedir")
        p_manifest.add_argument("-o", "--output", default=None)
        _flags(p_manifest, "config")
        p_manifest.set_defaults(func=cmd_manifest)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # main() handles a reader that left
    except (ConfigError, ProtocolError, MachineError, VolumeError, TreeError, ManifestError,
            escrow_mod.EscrowError, OSError) as exc:
        print(f"sealkit: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``): send the rest of stdout to devnull so
        # the flush at exit cannot raise again, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
