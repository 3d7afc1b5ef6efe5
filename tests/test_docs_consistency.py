"""Documentation consistency guards.

These tests keep DESIGN.md / EXPERIMENTS.md / README.md honest as the
builders and examples evolve: every builder's artefact is committed
under ``benchmarks/out/`` and named in the docs, and every documented
example must exist.
"""

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name: str) -> str:
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


def committed_artefact_keys() -> set:
    out_dir = os.path.join(REPO, "benchmarks", "out")
    return {name[:-4] for name in os.listdir(out_dir)
            if name.endswith(".txt")}


def test_every_bench_module_is_documented():
    # Each committed benchmarks/out/<key>.txt comes from a builder and
    # is named, by its regeneration command, in both experiment docs.
    from repro.experiments.figures import BUILDERS
    keys = committed_artefact_keys()
    assert keys, "no committed benchmark artefacts found"
    assert keys <= set(BUILDERS), f"orphan artefacts: {keys - set(BUILDERS)}"
    for doc in ("EXPERIMENTS.md", "DESIGN.md"):
        text = read(doc)
        for key in sorted(keys):
            assert f"cli {key}`" in text, f"{doc} does not name {key}"


def test_cli_exposes_every_builder(capsys):
    # Every builder is a CLI target and its output is committed.
    from repro.experiments import cli
    from repro.experiments.figures import BUILDERS
    assert cli.main(["list"]) == 0
    targets = set(capsys.readouterr().out.split())
    assert set(BUILDERS) <= targets
    assert set(BUILDERS) <= committed_artefact_keys(), \
        f"unsaved builders: {set(BUILDERS) - committed_artefact_keys()}"
    assert "repro.experiments.cli" in read("DESIGN.md")


def test_every_readme_example_exists():
    readme = read("README.md")
    for match in re.finditer(r"examples/(\w+\.py)", readme):
        path = os.path.join(REPO, "examples", match.group(1))
        assert os.path.exists(path), match.group(0)


def test_every_example_is_in_readme():
    readme = read("README.md")
    examples_dir = os.path.join(REPO, "examples")
    for name in os.listdir(examples_dir):
        if name.endswith(".py"):
            assert f"examples/{name}" in readme, name


def test_experiments_md_covers_all_paper_artifacts():
    experiments = read("EXPERIMENTS.md")
    for artefact in ("Table 1", "Table 2", "Table 3", "Figs. 4-5",
                     "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
                     "Fig. 11", "Section 7.3"):
        assert artefact in experiments, artefact


def test_design_md_documents_calibration_decisions():
    design = read("DESIGN.md")
    for marker in ("loss_model", "CALIBRATED_CONFIGS",
                   "send buffer", "sparse"):
        assert marker in design, marker
