"""Command-line front end: run verification scenarios, emit certificates,
dump coset tables.  Exit status is nonzero when any check fails."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cosets import enumerate_iwahori_mod, enumerate_K_mod, enumerate_T_cap_K_mod, enumeration_refusal, p1_table
from .verifier import SCENARIOS, ConfigError, Env, ScenarioConfig, run_scenario

FORMATS = ("text", "json-like")
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_specialize(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in ("a", "b", "u"):
            raise ConfigError(f"can only specialize a, b, u (got {name!r})")
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{name} = {value.strip()!r} is not an exact rational") from e
    return out


def read_config_file(path: str) -> dict:
    """The flag values of a flat key=value file, converted as the flags are."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read the config file: {e}") from e
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key in ("p", "n", "level", "seed"):
            try:
                out[key] = int(value)
            except ValueError as e:
                raise ConfigError(f"config key {key!r} needs an integer, got {value!r}") from e
        elif key in ("mu3", "scenario", "out", "specialize") or key == "format" and value in FORMATS:
            out[key] = value
        elif key == "dump_tables" and value.lower() in BOOLEANS:
            out[key] = BOOLEANS[value.lower()]
        elif key in ("format", "dump_tables"):
            raise ConfigError(f"config key {key!r} cannot be {value!r}")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return out


class _Parser(argparse.ArgumentParser):
    """An unknown flag or a malformed flag value is a configuration error."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="triform-verify",
        description="exact certification of trilinear test-vector statements on GL2(Q_p)",
    )
    ap.add_argument("--p", type=int, default=2, help="residue characteristic (2, 3 or 5)")
    ap.add_argument("--n", type=int, default=1, help="conductor of the third representation (1 or even)")
    ap.add_argument("--level", type=int, default=None, help="table level m >= n")
    ap.add_argument("--mu3", type=str, default=None, help="character spec, e.g. ram(c=1, gens=[2->zeta2^1], pi=u)")
    ap.add_argument("--scenario", type=str, default="all", help="scenario id or 'all': " + ", ".join(SCENARIOS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--specialize", type=str, default=None, help="exact values, e.g. a=2,b=1/3,u=5")
    ap.add_argument("--out", type=str, default=None, help="write the report to a file instead of stdout")
    ap.add_argument("--format", type=str, default="text", choices=FORMATS)
    ap.add_argument("--dump-tables", action="store_true", help="dump enumerated coset tables and exit")
    ap.add_argument("--config", type=str, default=None, help="flat key=value file mirroring these flags")
    return ap


def dump_tables(cfg: ScenarioConfig) -> str:
    """The coset tables at level m: P^1, K/K(m) for m <= 2, I(n)/K(m) and
    T cap K, for a configuration that a run accepts (its `Env`); a table too
    large to list is refused before any is built."""
    cfg.validate()
    m = max(cfg.level or 0, cfg.n, 1)
    for n in (0, cfg.n) if m <= 2 else (cfg.n,):
        refusal = enumeration_refusal(cfg.p, n, m)
        if refusal:
            raise ConfigError(refusal)
    ctx = Env(cfg).ctx
    chunks = [p1_table(ctx, m).as_coset_table().dump()]
    if m <= 2:
        chunks.append(enumerate_K_mod(ctx, m).dump())
    chunks.append(enumerate_iwahori_mod(ctx, cfg.n, m).dump())
    chunks.append(enumerate_T_cap_K_mod(ctx, m).dump())
    return "\n".join(chunks)


def write_report(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    out, created = None, False
    try:
        merged = vars(build_parser().parse_args(argv))
        if merged["config"]:
            merged.update(read_config_file(merged["config"]))
        out = merged.get("out")
        cfg = ScenarioConfig(
            p=merged["p"],
            n=merged["n"],
            level=merged["level"],
            mu3=merged["mu3"],
            scenario=merged["scenario"],
            seed=merged["seed"],
            specialize=parse_specialize(merged["specialize"]) if merged.get("specialize") else None,
        )
        cfg.validate()
        if out:
            existed = os.path.exists(out)
            try:
                open(out, "a").close()  # an unwritable path fails here, before any work
            except OSError as e:
                raise ConfigError(f"cannot write the report: {e}") from e
            created = not existed
        if merged.get("dump_tables"):
            write_report(dump_tables(cfg), out)
            return 0
        report = run_scenario(cfg)
    except ConfigError as e:
        if created:  # a bad configuration leaves no report file behind
            os.remove(out)
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    write_report(report.emit("structured" if merged["format"] == "json-like" else "text"), out)
    return 1 if report.has_failure() else 0


if __name__ == "__main__":
    raise SystemExit(main())
