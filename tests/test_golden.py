"""Golden digests of `upq` stdout for a fixed set of invocations.

The digests pin the matrix file format and the JSON reports byte for byte:
any change to how entries are printed, to the order of keys or to the
numbers themselves shows here. They were recorded with numpy 2.4 and
OpenBLAS 0.3 on x86-64; a different LAPACK may round the decompositions
differently, and then the digests need recording again from a commit whose
output is known to be right.
"""

import hashlib
import io
import json

import numpy as np

from pseudounitary import (
    GeneratorSet,
    HyperbolicBlock,
    assemble_blocks,
    construct_from_generators,
    invariant_from_blocks,
    loads_matrix,
    validate_generators,
)
from pseudounitary.cli import main

# name -> (argv, name of the invocation whose stdout is fed to stdin, or None)
INVOCATIONS = {
    "sample-uspp-1": (["sample", "--family", "uspp", "--p", "1", "--q", "1", "--seed", "7"], None),
    "sample-uspp-3": (["sample", "--family", "uspp", "--p", "3", "--q", "3", "--seed", "7",
                       "--tmax", "2.5"], None),
    "sample-lie-1": (["sample", "--family", "lie", "--p", "1", "--q", "2", "--seed", "7"], None),
    "sample-lie-3": (["sample", "--family", "lie", "--p", "3", "--q", "2", "--seed", "7"], None),
    "sample-upq-1": (["sample", "--family", "upq", "--p", "1", "--q", "2", "--seed", "7"], None),
    "sample-upq-3": (["sample", "--family", "upq", "--p", "3", "--q", "4", "--seed", "7"], None),
    "sample-haar-1": (["sample", "--family", "haar", "--p", "1", "--q", "1", "--seed", "7"], None),
    "sample-haar-3": (["sample", "--family", "haar", "--p", "3", "--q", "2", "--seed", "7"], None),
    "sample-uspp-64": (["sample", "--family", "uspp", "--p", "64", "--q", "64", "--seed", "7"],
                       None),
    "exp": (["exp", "-"], "sample-lie-3"),
    "log": (["log", "-"], "exp"),
    "invert": (["invert", "-"], "sample-upq-3"),
    "decompose": (["decompose", "-"], "sample-uspp-3"),
    "generators": (["generators", "-"], "sample-uspp-3"),
}

GOLDEN_SHA256 = {
    "sample-uspp-1": "82650d4dc1dbc818c2c1124aa6c81581e076245f0ab7ec4f1ccbf91b507d3ed2",
    "sample-uspp-3": "8e42d0ed61eda1fc715179fa867ba53683b4f61fffaf4608057c5668252ca979",
    "sample-lie-1": "f29343c687fe758533aadfa06e7dc741ded2fbea035f4f060063f288099954ad",
    "sample-lie-3": "c5e89b55dc4b36a6ebe25ef6c3471f9cad83cedf6511064e8f5befc8d688e394",
    "sample-upq-1": "1629cd4faecee667c6259db7a09b6d1ca99417357d61f8d9aff115ba9e92647b",
    "sample-upq-3": "a5d2d0a31ffa10cfce671f25c1b8e6e14303c5f69758534b29fada6eff442fa3",
    "sample-haar-1": "513c32644bc66fc7a0dc433c6e665fbc54778c9a19509c69032bbdd44ad441f3",
    "sample-haar-3": "1307d951b18ef7cd5bff82a60379ba2529476ede39e70777bef2747d57fd4b0f",
    "sample-uspp-64": "97b0731593ab032bfeedb2b172d330597854774caad8ac8d8395f3737306868f",
    "exp": "3c6870b26d46eb29dee6753dc4d83354b26281d446d54ce7f62eb11b80834448",
    "log": "779604f8825d588380e7ffcb5aadee543f8dfe0464ca20bac469a8431399c45c",
    "invert": "c4bc9cb01334713d697ed2e1469b35c770276b9bf8c9702feda8219a91f383f2",
    "decompose": "2275483121bba3619d1f4c3c47dc0388f37ec52f70ec7d56c49870faadc7bbbe",
    "generators": "0c55d2760f35200b5b4eebd3c88e22a36eb799c998a6c2f4458d21f19eff8d0a",
}


def _run(capsys, monkeypatch, argv, stdin_text):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def stdout_digests(capsys, monkeypatch) -> dict:
    """Run every invocation in order and return the sha256 of each stdout."""
    outputs = {}
    for name, (argv, source) in INVOCATIONS.items():
        outputs[name] = _run(capsys, monkeypatch, argv,
                             None if source is None else outputs[source])
    return {name: hashlib.sha256(out.encode("utf-8")).hexdigest()
            for name, out in outputs.items()}


def test_stdout_matches_golden_digests(capsys, monkeypatch):
    got = stdout_digests(capsys, monkeypatch)
    assert set(got) == set(GOLDEN_SHA256)
    changed = sorted(name for name in got if got[name] != GOLDEN_SHA256[name])
    assert changed == []



def test_decompose_report_reassembles_its_sample(capsys, monkeypatch):
    # what the "decompose" digest pins, checked by meaning: the pieces and q
    # of the report rebuild the sampled member, with the sample's invariant
    sample = _run(capsys, monkeypatch, INVOCATIONS["sample-uspp-3"][0], None)
    report = json.loads(_run(capsys, monkeypatch, INVOCATIONS["decompose"][0], sample))
    doc = loads_matrix(sample)
    q = np.array(report["result"]["unitary"]).view(complex).reshape(doc.matrix.shape)
    blocks = [HyperbolicBlock(b["kind"], b["t"], b["sign"]) for b in report["result"]["blocks"]]
    assert np.linalg.norm(assemble_blocks(blocks, q) - doc.matrix) <= 1e-9
    truth = [HyperbolicBlock(b["kind"], b["t"], b["sign"])
             for b in json.loads(sample)["ground_truth"]["blocks"]]
    assert invariant_from_blocks(blocks).matches(invariant_from_blocks(truth))


def test_generators_report_reassembles_its_sample(capsys, monkeypatch):
    # what the "generators" digest pins, checked by meaning: the report is a
    # valid generator set that rebuilds the sampled member
    sample = _run(capsys, monkeypatch, INVOCATIONS["sample-uspp-3"][0], None)
    report = json.loads(_run(capsys, monkeypatch, INVOCATIONS["generators"][0], sample))
    doc = loads_matrix(sample)
    result = report["result"]
    vectors = [np.array(g["vector"]).view(complex).reshape(-1) for g in result["generators"]]
    gens = GeneratorSet(metric=doc.metric, sigma=result["sigma"],
                        lambdas=np.array([g["lambda"] for g in result["generators"]]),
                        vectors=np.array(vectors).reshape(result["count"], doc.metric.n))
    assert validate_generators(gens) == []
    assert np.linalg.norm(construct_from_generators(gens) - doc.matrix) <= 1e-9
