"""Golden output digests for the analyses backed by the columnar kernel.

Each case runs one CLI command and compares the SHA-256 of its report
with a digest recorded from the scalar per-job implementation, so any
change to a single emitted digit of a sweep, sensitivity grid or
population-share report fails here.  Inputs are the built-in corpus and
``synth --size 1000 --seed 7``, read through a relative path so that the
``input.source`` metadata is the same wherever the suite runs.
"""

import hashlib
import itertools

import pytest

from dlcost.cli import EX_OK, run

TRACE = "jobs.jsonl"

INPUTS = {"corpus": ("--corpus",), "synth": ("--trace", TRACE)}

COMMANDS = {
    "sweep": ("sweep",),
    "cartesian": ("sweep", "--cartesian", "--axes", "ethernet,pcie,gpu_flops"),
    "efficiency": ("sensitivity", "--analysis", "efficiency"),
    "shares": ("aggregate", "--stat", "shares"),
    "share-cdf": ("aggregate", "--stat", "share-cdf"),
    "share-cdf-cnode": ("aggregate", "--stat", "share-cdf",
                        "--component", "compute_bound", "--level", "cnode"),
}

CASES = ["-".join(case) for case in itertools.product(
    INPUTS, COMMANDS, ("csv", "json"), ("none", "ideal"))]


def case_digest(case: str) -> str:
    """Run ``case`` in the current directory and return its report's SHA-256."""
    source, rest = case.split("-", 1)
    command, fmt, overlap = rest.rsplit("-", 2)
    out = f"{case}.{fmt}"
    code = run([*COMMANDS[command], *INPUTS[source], "--hw", "pai-baseline",
                "--overlap", overlap, "--format", fmt, "--out", out])
    assert code == EX_OK
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    assert run(["synth", "--size", "1000", "--seed", "7", "--out", str(path / TRACE)]) == EX_OK
    return path


#: Recorded from the scalar per-job implementation (one breakdown() call
#: per job per model point).
GOLDEN = {
    "corpus-sweep-csv-none": "6cded16c3dec2c0701885fa78b9e0290d36b18ff33e60928fd540d25acf26a0f",
    "corpus-sweep-csv-ideal": "32972188607b9990c038c6cb8a5ef4437f0fa8f990a003c5f05f9a56be266d55",
    "corpus-sweep-json-none": "0ea4e7b0883a46b75052319c59b2843a6c424ea19e265faded10b043af0aea7c",
    "corpus-sweep-json-ideal": "1537d75f7864641e01df020ede3a8093e81419fae8193b1cea3be983249a323d",
    "corpus-cartesian-csv-none": "7be566a0165a93524630c07c0742660d69861f85e462ec9875e744c9d51c9800",
    "corpus-cartesian-csv-ideal": "c56120f171364360cde201e5bd2ca1fb79455653c5f10f58c96458485fbad53c",
    "corpus-cartesian-json-none": "ffa9c25011a7949a01e54468f4dad4a1979e679d70f38b6f5804232d4695163c",
    "corpus-cartesian-json-ideal": "08301de5d33cfe7ff43acf14ee1a53037252c8e36cbba95afed6866a78f5ac4f",
    "corpus-efficiency-csv-none": "763318af950c011df5ccb2bf54d85200fbb568e180f67a4779f8dd061e778111",
    "corpus-efficiency-csv-ideal": "9cce61e60588d95300a3b68836909128e19919574d590646a71eb5a6490b2ee6",
    "corpus-efficiency-json-none": "8c3a698f8fd6c79e7ae5e0420383636a3375e1a8bdb5dd31cc26e4df55702444",
    "corpus-efficiency-json-ideal": "a7dffe5fb2521e1118eb5faa16915ebad80dae811c5ae734ef1c97c604ba83f8",
    "corpus-shares-csv-none": "d6756d3510a10cae0f1287dc1b20b459f2f74f3fc905aefc7726434fd3bac855",
    "corpus-shares-csv-ideal": "302c1bb306e2719a5e3d2dc0e66f438f3336cc8583d43a87ae5c91619c1b3b57",
    "corpus-shares-json-none": "263042dcca2832baa48bce93c83348d0959d74a5779fdabaeca5e6ff95fd5c08",
    "corpus-shares-json-ideal": "917fc3b051371140705c43638cd873ed88dc01904ebedfe8636dd9fc4bc9d475",
    "corpus-share-cdf-csv-none": "6e0762de8be17617ba5b70fbcb340a3adf2fc6414346b93afd1b8a1951061a9f",
    "corpus-share-cdf-csv-ideal": "f5cec8eb6f3c8c1bb8756db3a5d4e369cab848bd37e6321d5a736104cc29b132",
    "corpus-share-cdf-json-none": "3918d72af00b80b123d5f81f4e4f7907536ae2c2225e072db8056bc0eacd31d4",
    "corpus-share-cdf-json-ideal": "088154769a5e92a1a5aca3b2bb1303730a202338cbcf1c4cb59a1dc91e74aa00",
    "corpus-share-cdf-cnode-csv-none": "08b4f5feaf43fa6045d8e4be53c6b16b0f1172353c9639e2e79387ed102e33e3",
    "corpus-share-cdf-cnode-csv-ideal": "386120bfa6211c293aa2f90e094cd536ad9ae6ea3ea410b5c0f75537d8c47017",
    "corpus-share-cdf-cnode-json-none": "5f27a6ad204453677cfac49911dea5807b72dce1637333e91226dd1196dcd416",
    "corpus-share-cdf-cnode-json-ideal": "040610677b3d2552e52fbfdf16ab29bdd2a6c1d9619a60f84b255dca8971ae23",
    "synth-sweep-csv-none": "93ae0a966ab85d1ef63aaf7926c1029cc0fa57eadfeda7e69f0f75e95670ba7f",
    "synth-sweep-csv-ideal": "200308e6832d03b7e80ea78399ffd0635238a3a9e1b57c67b0a0dc4fde9a8491",
    "synth-sweep-json-none": "b90cdf6de8f2baa5ade1c44a8753b7c00e0ffd4561e8402538cb378244956907",
    "synth-sweep-json-ideal": "5e4342fa92fd7dc89497e13accc8397c9f26c27aafe0576bcb524fd74c3194d5",
    "synth-cartesian-csv-none": "6018808b2f1b43db0d2d4af21e8970898bb723afd8943442b615bebb65e4c313",
    "synth-cartesian-csv-ideal": "76c723bf75f62fb74641bb7aefac69b4e8e808a63339245ada6af8403950f15d",
    "synth-cartesian-json-none": "f277ae916c4e4c5417d0ebe053544f0ad5e3f4e4b2e51316aaf907591f6f42d8",
    "synth-cartesian-json-ideal": "6679c174ac1a705b2e7180f95a4c4422498565bbed206d6fe4a6253d54795cb0",
    "synth-efficiency-csv-none": "d03def62141ed8bbef7dc96b152bd03ecc633b61e7021be8d461415d7be18b4c",
    "synth-efficiency-csv-ideal": "b8f5ed4a455fdaebacfb6970c8d380a064dd1971107faf461486a85420fe3c1d",
    "synth-efficiency-json-none": "e0e27bce7acc2270e104eb8d987db247de7141e977d6689ee677057f0bfd64db",
    "synth-efficiency-json-ideal": "e8c1db48ba3321f9e9c1bad89e9ee1c2f6f2f5140145648bd0307fd6e2c210f7",
    "synth-shares-csv-none": "3ad8151d0661d9610d97f5e78e73c1a400095cc2f173959e66c10742e6fcc71a",
    "synth-shares-csv-ideal": "5668c2312c4c536759f3882260350a032e0336aa4321f3a23e60cbc49addcdeb",
    "synth-shares-json-none": "e4555bce42fb15e20f88330d5ab3693b3eec8cc5d29a8459c1a7acd0e82ec804",
    "synth-shares-json-ideal": "54a6fe3a2cb9c11a1d4b8cf0b9780865c6d3ff694c00086843cd7fb130ddfeec",
    "synth-share-cdf-csv-none": "bb7b975009952078d91e12656f7867f91149f56d8bd0c5179f2351b973de134e",
    "synth-share-cdf-csv-ideal": "903c05ba35c5bec6874e1d145a6009cba54d225fbc1293445977182a118726af",
    "synth-share-cdf-json-none": "a98a26782eaf28b921cac6f03c6d1bb1265bcb74af2ea60c0571b8c92f0015e8",
    "synth-share-cdf-json-ideal": "94be13881492401fd5aab012bd676ab4d499f4066afacde36505d72abfbd8e0b",
    "synth-share-cdf-cnode-csv-none": "f9fd9b10e14ea6e44961a79a59194b1ce023cfc40da49d95cbbb6e4967ab0887",
    "synth-share-cdf-cnode-csv-ideal": "414f8ca8abe2c56fd0916bc68c234ddc780f893c81ca15fdcc9c8f496754a18f",
    "synth-share-cdf-cnode-json-none": "1ce40ea86dfcd50d4cf19e4b6adf4c205d739a2170ac6f1cbd266f71f3220cd7",
    "synth-share-cdf-cnode-json-ideal": "3c77d6baf2ed7ab68e5462dece43e8ccf7831ee0cccdf705f8a725148e3ccdc6",
}


@pytest.mark.parametrize("case", CASES)
def test_report_digest_is_unchanged(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert case_digest(case) == GOLDEN[case]
