"""Command-line interface.

Input strings are taken as raw argument bytes; an argument of the form
`@path` reads the file at `path` instead (bytes are mapped to characters
one-to-one).  The delimiter byte '$' is reserved and rejected in inputs.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .alphabet import Alphabet
from .decider import TokenDecider, UdDecider
from .errors import ShingleSyncError
from .oracle import decoding_count, find_obstruction, rotation_pair, transposition_pair
from .setrecon import ShingleCodec
from .shinglelen import recommend_shingle_len
from .shingles import ShingleMultiset, shingle_sequence, shingling
from .stringrecon import FIELD, MAX_K, MODE_FIXED, MODE_RATELESS, ReconConfig, run_protocol
from .transport import Listener, connect


def _read_input(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "rb") as fh:
            return fh.read().decode("latin-1")
    return arg


def cmd_check(args) -> int:
    word = _read_input(args.string)
    alphabet = Alphabet(_read_input(args.alphabet)) if args.alphabet else Alphabet.from_text(word)
    if args.q == 2:
        verdict = UdDecider(alphabet).feed(word)
    else:
        # the token decider takes shingles over any symbols: the word is held
        # to the alphabet here, as the symbol decider holds it at q = 2
        alphabet.encode(word)
        verdict = TokenDecider(args.q).push_shingles(shingle_sequence(word, args.q))
    if verdict.ok:
        print("UD")
        return 0
    print(f"NOT-UD {verdict.reason.value} at index {verdict.position}")
    return 1


def cmd_shingle(args) -> int:
    word = _read_input(args.string)
    sys.stdout.write(shingling(word, args.l).to_text())
    return 0


def cmd_decode(args) -> int:
    with open(args.multiset_file, "r", encoding="utf-8") as fh:
        ms = ShingleMultiset.from_text(fh.read())
    l = args.l or ms.min_len()
    result = decoding_count(ms, cap=args.count_cap, l=l)
    if result.count == 1:
        print(result.witnesses[0])
        return 0
    if result.count == 0:
        print("INCONSISTENT no decoding exists")
        return 2
    suffix = "+" if result.saturated else ""
    print(f"AMBIGUOUS count={result.count}{suffix} witnesses: " + " ".join(result.witnesses))
    return 1


def cmd_obstruct(args) -> int:
    word = _read_input(args.string)
    witness = find_obstruction(word)
    if witness is None:
        print("NO-OBSTRUCTION")
        return 0
    x, a, b = witness
    print(f"OBSTRUCTION x={x} a={a} b={b}")
    return 1


def _parse_mode(text: str) -> tuple[str, int]:
    if text == MODE_RATELESS:
        return MODE_RATELESS, 0
    if text.startswith("fixed:"):
        return MODE_FIXED, int(text.split(":", 1)[1])
    raise argparse.ArgumentTypeError(f"mode must be 'rateless' or 'fixed:<m>', got {text!r}")


def cmd_reconcile(args) -> int:
    word = _read_input(args.input)
    if args.action == "serve":
        # the responder adopts the initiator's parameters from its hello and
        # sends none of its own, so any valid config will do
        config = ReconConfig(l=2)
    else:
        mode, m_hat = args.mode or (MODE_RATELESS, 0)
        # k, seed and a rateless session's m_hat keep ReconConfig's defaults unless given
        given = {name: getattr(args, name) for name in ("k", "seed") if getattr(args, name) is not None}
        if mode == MODE_FIXED:
            given["m_hat"] = m_hat
        # the paper's length, capped at the longest shingle the codec holds
        # for the local word's symbols; a peer with other symbols may allow
        # only a shorter one, which --l must then give
        l = args.l or min(
            recommend_shingle_len(max(2, len(word)), 0.6),
            ShingleCodec(Alphabet.from_text(word), FIELD).max_shingle_len,
        )
        config = ReconConfig(l=l, mode=mode, **given)
    host, _, port = args.addr.rpartition(":")
    if args.action == "serve":
        listener = Listener(host or "127.0.0.1", int(port))
        print(f"listening on {listener.host}:{listener.port}", file=sys.stderr)
        endpoint = listener.accept()
        role = "responder"
    else:
        endpoint = connect(host or "127.0.0.1", int(port))
        role = "initiator"
    try:
        remote_word, report = run_protocol(word, endpoint, role, config)
    finally:
        endpoint.close()
        if args.action == "serve":
            listener.close()
    sys.stdout.write(report.to_json() + "\n" if args.report == "json" else report.to_text())
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(remote_word.encode("latin-1"))
    return 0


def cmd_gen_pevzner(args) -> int:
    rng = random.Random(args.seed)
    symbols = "abcd"
    q = args.q

    def block(lo, hi):
        return "".join(rng.choice(symbols) for _ in range(rng.randrange(lo, hi + 1)))

    gram = lambda: "".join(rng.choice(symbols) for _ in range(q - 1))
    if args.kind == "transpose":
        x, xp = transposition_pair(
            block(0, 3), gram(), block(1, 4), gram(), block(0, 3), block(1, 4), block(0, 3), q
        )
    else:
        z = gram()
        x, xp = rotation_pair(block(1, 4), z, block(1, 4), z, q)
    print(x)
    print(xp)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shinglesync",
        description="unique-decodability testing and shingle-based string reconciliation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a string for unique decodability")
    p.add_argument("string")
    p.add_argument("--alphabet", help="explicit alphabet (string or @file)")
    p.add_argument("--q", type=int, default=2, help="window length (default 2)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("shingle", help="print the shingle multiset of a string")
    p.add_argument("string")
    p.add_argument("--l", type=int, default=2, help="shingle length (default 2)")
    p.set_defaults(func=cmd_shingle)

    p = sub.add_parser("decode", help="decode a shingle-multiset file")
    p.add_argument("multiset_file")
    p.add_argument("--l", type=int, help="shingle length (default: shortest entry)")
    p.add_argument("--count-cap", type=int, default=2, help="stop counting decodings here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("obstruct", help="scan a string for an obstruction pattern")
    p.add_argument("string")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("reconcile", help="reconcile a string with a remote peer")
    p.add_argument("action", choices=["serve", "connect"])
    p.add_argument("addr", help="host:port")
    p.add_argument("--input", required=True, help="local string (or @file)")
    p.add_argument("--output", help="write the recovered remote string here")
    p.add_argument(
        "--report",
        choices=["text", "json"],
        default="text",
        help="print the session report as key=value lines (default) or one JSON object",
    )
    # session parameters, for connect only: serve adopts the peer's
    p.add_argument(
        "--l", type=int, help="shingle length (default: sized from input, at most what the encoding holds)"
    )
    p.add_argument(
        "--mode",
        type=_parse_mode,
        help="rateless (default), or fixed:<m>: a first batch of values pre-sized "
        "for about m differing instances, at most both words' instances, topped up on request",
    )
    p.add_argument(
        "--k",
        type=int,
        help=f"the most session checks a session runs, 1 to {MAX_K} (default {MAX_K}): each check is one "
        "whole-set value, and a failed one reopens every bucket for one more value; k sets no residue width",
    )
    p.add_argument("--seed", type=int, help="session seed (default 1)")
    p.set_defaults(func=cmd_reconcile)
    reconcile_parser = p

    p = sub.add_parser("gen", help="generators")
    gen_sub = p.add_subparsers(dest="gen_target", required=True)
    g = gen_sub.add_parser("pevzner", help="emit a pair of words with equal window multisets")
    g.add_argument("--kind", choices=["transpose", "rotate"], default="transpose")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--q", type=int, default=2)
    g.set_defaults(func=cmd_gen_pevzner)

    args = parser.parse_args(argv)
    if args.command == "reconcile" and args.action == "serve":
        given = [f"--{name}" for name in ("l", "mode", "k", "seed") if getattr(args, name) is not None]
        if given:
            reconcile_parser.error(f"serve adopts the connecting peer's parameters; drop {', '.join(given)}")
    try:
        return args.func(args)
    except ShingleSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
