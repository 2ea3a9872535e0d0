"""Digests of every output file of a fixed set of capsrel runs, to show
that a change leaves the program's outputs byte-identical.

    python tests/output_digests.py OUT_DIR

It writes a 1-pair and a 2-pair synth corpus under OUT_DIR, which must not
hold a `configs` directory yet. For the full model, -Att and -Capsule on
the 1-pair corpus, and for M = 4 on the 2-pair one, it runs `train` (B 4,
C 2, d 2, 2 epochs, batch 4, dropout 0.5), `eval`, `predict` and
`predict --multi --threshold 0.3`. Then it prints `sha256  relative/path`
for every file the commands wrote, sorted by path. `train_log.jsonl` is
hashed without its first line, because that run config holds the output
paths; the run configs the script writes under `configs` are not hashed,
for the same reason.

It runs the `capsrel` of the `src` directory beside its own, so a copy of
the script in each of two trees compares their outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from capsrel.cli import main  # noqa: E402

MODEL = {"B": 4, "C": 2, "d": 2, "epochs": 2, "batch_size": 4,
         "dropout": 0.5, "seed": 1}
# run directory: (pairs per sentence of its corpus, its config fields)
VARIANTS = {"full": (1, {}), "no-att": (1, {"word_att": False}),
            "no-capsule": (1, {"capsule": False}), "m4": (2, {"M": 4})}


def command(*argv: str) -> None:
    """Run one capsrel command, its stdout discarded; raise unless it
    exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"capsrel {' '.join(argv)} exited {code}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_log.jsonl":
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def run(out_dir) -> list[tuple[str, str]]:
    """Run every command of every variant under `out_dir`; return the
    (sha256, relative path) of each file they wrote, sorted by path."""
    out = Path(out_dir)
    configs = out / "configs"
    configs.mkdir(parents=True)
    for pairs in (1, 2):
        command("synth", "--out-dir", str(out / f"synth{pairs}"),
                "--relations", "4", "--bags", "12", "--pairs", str(pairs),
                "--seed", "5")
    for name, (pairs, fields) in VARIANTS.items():
        data, run_dir = out / f"synth{pairs}", out / name
        cfg = configs / f"{name}.json"
        cfg.write_text(json.dumps({
            "corpus": str(data / "corpus.jsonl"),
            "word_embeddings": str(data / "words.txt"),
            "entity_embeddings": str(data / "entities.txt"),
            "relation_embeddings": str(data / "relations.txt"),
            "checkpoint": str(run_dir / "model.ckpt"),
            "output_dir": str(run_dir), **MODEL, **fields}))
        for argv in (["train"], ["eval"], ["predict"],
                     ["predict", "--multi", "--threshold", "0.3", "--out",
                      str(run_dir / "predictions_multi.jsonl")]):
            command(*argv, "--config", str(cfg))
    written = sorted((path.relative_to(out).as_posix(), path)
                     for path in out.rglob("*")
                     if path.is_file() and configs not in path.parents)
    return [(digest(path), rel) for rel, path in written]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT_DIR")
    for sha, rel in run(sys.argv[1]):
        print(f"{sha}  {rel}")
