"""Golden output digests for every report subcommand.

Each case runs one CLI command and compares the SHA-256 of its report
with a recorded digest, so any change to a single emitted byte of a
report fails here.  The sweep, sensitivity-grid and population-share
digests were recorded from the scalar per-job implementation (one
``breakdown()`` call per job per model point); the others from the
hand-built report rows that the column specs replaced.  Inputs are the
built-in corpus and ``synth --size 1000 --seed 7``, read through a
relative path so that the ``input.source`` metadata is the same wherever
the suite runs, plus a short trace with one malformed line for
``validate``, whose exit code is then 2.
"""

import hashlib
import itertools
import json

import pytest

from dlcost.cli import EX_DATA, EX_OK, run
from dlcost.core import ArchitectureKind

TRACE = "jobs.jsonl"
MALFORMED = "malformed.jsonl"

INPUTS = {"corpus": ("--corpus",), "synth": ("--trace", TRACE),
          "malformed": ("--trace", MALFORMED)}

COMMANDS = {
    "sweep": ("sweep",),
    "cartesian": ("sweep", "--cartesian", "--axes", "ethernet,pcie,gpu_flops"),
    "efficiency": ("sensitivity", "--analysis", "efficiency"),
    "shares": ("aggregate", "--stat", "shares"),
    "share-cdf": ("aggregate", "--stat", "share-cdf"),
    "share-cdf-cnode": ("aggregate", "--stat", "share-cdf",
                        "--component", "compute_bound", "--level", "cnode"),
    "breakdown": ("breakdown",),
    **{f"project-{arch.value}": ("project", "--target", arch.value)
       for arch in ArchitectureKind},
    "candidates": ("sweep", "--axes", "ethernet", "--candidates", "10Gbps,100Gbps,5e9"),
    "composition": ("aggregate", "--stat", "composition"),
    "scale-cdf": ("aggregate", "--stat", "scale-cdf"),
    "overlap": ("sensitivity", "--analysis", "overlap"),
    "validate": ("validate",),
    "testbed": ("breakdown", "--hw", "case-study-testbed", "--eff", "measured:resnet50"),
}

FORMATS_AND_OVERLAPS = (("csv", "json"), ("none", "ideal"))

CASES = ["-".join(case) for case in itertools.product(
    ("corpus", "synth"), COMMANDS, *FORMATS_AND_OVERLAPS)] + [
    "-".join(case) for case in itertools.product(
        ("malformed",), ("validate",), *FORMATS_AND_OVERLAPS)]


def case_digest(case: str, expected_code: int = EX_OK) -> str:
    """Run ``case`` in the current directory, check its exit code and
    return its report's SHA-256."""
    source, rest = case.split("-", 1)
    command, fmt, overlap = rest.rsplit("-", 2)
    name, *flags = COMMANDS[command]
    out = f"{case}.{fmt}"
    # The default profile goes first so that a case's own --hw wins.
    code = run([name, "--hw", "pai-baseline", *flags, *INPUTS[source],
                "--overlap", overlap, "--format", fmt, "--out", out])
    assert code == expected_code
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    assert run(["synth", "--size", "1000", "--seed", "7", "--out", str(path / TRACE)]) == EX_OK
    corpus = path / "corpus.jsonl"
    assert run(["corpus", "--out", str(corpus)]) == EX_OK
    lines = corpus.read_text().splitlines()
    measured = json.loads(lines[1]) | {"measured_step_seconds": 0.126}
    lines[1:2] = [json.dumps(measured), "{broken"]
    (path / MALFORMED).write_text("".join(line + "\n" for line in lines))
    return path


#: The first 48 were recorded from the scalar per-job implementation (one
#: breakdown() call per job per model point), the rest from the hand-built
#: report rows.
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
    "corpus-breakdown-csv-none": "22d504420784ed28b2d58f9877ae9d4ee9df81c237affc37b27a77a3fd58d04f",
    "corpus-breakdown-csv-ideal": "20ce17bb9c6228fe91af02add02cd74260bc9998bbdda5279a0f6d162e188ab5",
    "corpus-breakdown-json-none": "114db1da18d394e4f0db230360f436e0211897dc87424c817b78ad16caee46f7",
    "corpus-breakdown-json-ideal": "51b2a696abca2c97695ac31c04462d612125bafb8e00c03f164b08579a9787cf",
    "corpus-project-one_worker_one_gpu-csv-none": "ca5eaa435be15c5c92b31cc7617c0cbee4ced83f783fc413db3fac863ddadc48",
    "corpus-project-one_worker_one_gpu-csv-ideal": "a9902b8d6c77f89289429476790e03497f66acd68f892355ca3451ae1e8d74f8",
    "corpus-project-one_worker_one_gpu-json-none": "d945e1833ffaf516d0fd4bd98ded283cb4071de19783659da46d6c88146e877f",
    "corpus-project-one_worker_one_gpu-json-ideal": "efadb3d251780997999935ac8ab20f3190446a2c9118a5547dfcf169ba950c1f",
    "corpus-project-one_worker_n_gpu-csv-none": "b86d60bfa725f3e71261f1794905bdfe6f2c324d0ad85d1c092e2144c2332cda",
    "corpus-project-one_worker_n_gpu-csv-ideal": "3846810330456d4192323052a8057c52cfa446b2a6fe83605e2f38c50afb900a",
    "corpus-project-one_worker_n_gpu-json-none": "f8bc88a68d709ad9442089b08435c438851243c6fcf78067f737495c53c43d54",
    "corpus-project-one_worker_n_gpu-json-ideal": "58253a768a59fe8dfff80c61f7ee3273b36bcd0e2105f21e74419bfbd103bc11",
    "corpus-project-ps_worker-csv-none": "7919fed63ab927094aa2fec6a727fccf9909e464dbe89275e19b2987722f6139",
    "corpus-project-ps_worker-csv-ideal": "22a7343c93778cfd6ea40e6a5ea0fd0d9ba71eadb9b15f832062a7689fd7ce53",
    "corpus-project-ps_worker-json-none": "622422bfdfb18c3e02b3a8f82108409af0642b9cd2d6d959dcdb4923e05d30fe",
    "corpus-project-ps_worker-json-ideal": "53c5098f3aa5b39ff8966566bf2746befe5e9a41ce6cea4f65a51c10ac3a956e",
    "corpus-project-allreduce_local-csv-none": "181f192a4ee8ee3d57360a00ef5a54e673a18eddc6add530b340565db113d290",
    "corpus-project-allreduce_local-csv-ideal": "a95220afa0d55183eb99abe5687340f96636c61bc4ddc62a6b7ca05c38e18e37",
    "corpus-project-allreduce_local-json-none": "53c33c359cbbcd569379f4831d86bc38b5bfe0f902d16e27a14fc23ba99fe76d",
    "corpus-project-allreduce_local-json-ideal": "640a9ead4dbb6d35056742f047da5e7ff387bdbc997bf5c0da779adfd6ba277a",
    "corpus-project-allreduce_cluster-csv-none": "b592685be29d9e0d44e87b3c6336396cfc8002b07919df942449e27e848369e9",
    "corpus-project-allreduce_cluster-csv-ideal": "e60a23fe8d8b5e706f28a3fb41c1c444783c124a3015fa6d30fab89a98f9f84f",
    "corpus-project-allreduce_cluster-json-none": "5d9feab0cfa08d9d580d3208764c90e9268a86b5505f10428bbde175bdd2deb8",
    "corpus-project-allreduce_cluster-json-ideal": "31be3c946851b64b7bb52862421f19b70be604a90d2f0eec9395eb06f01323bd",
    "corpus-project-pearl-csv-none": "0a8e0bebb09077e1e1e5347be2f94520c4c0f43d2bfc5a1f028d8b62cd039648",
    "corpus-project-pearl-csv-ideal": "4fd881d2cc1ecf30a284466f0f8d44b2a423b81c35a099992f56a5776feb2bc2",
    "corpus-project-pearl-json-none": "f34bf88b96ca5ce409f518228eedd3499b0880a3b60bd72bc8bc02c98b7bb3e9",
    "corpus-project-pearl-json-ideal": "541a8ecd4c9f103f03c7785c4a9f8aa6bd81f8214e0c93a83955e6bdcabcaf63",
    "corpus-candidates-csv-none": "c490ecf0bf7ffd115da2a3ac20a4610867164b30db7ba752ea1956b801d833a2",
    "corpus-candidates-csv-ideal": "e907b2c19b44e60de4a7b1dfb8ebbfa156b67d0f5d2bafa448a85e02e7ef9a5c",
    "corpus-candidates-json-none": "a9aaf2a88bb1cb4182950c91a267a9b61881842dc5d39a3e2a084dde77724570",
    "corpus-candidates-json-ideal": "9c8dfb123e9c04b755bf7486d739a8d92414cfaef36aa1d5c29a51e2997a0902",
    "corpus-composition-csv-none": "b52f12d3f1f51d8ec4ce13a23cc5ee6e4de1a4c5abc4f94168d8449b45c47964",
    "corpus-composition-csv-ideal": "1732d0367d9d8d01b65623e2cb7c3735b5cc428b00291d8bac840629491e3094",
    "corpus-composition-json-none": "c13bd4a3e47221b7ef64fda8eb9405e1d0b231d46bbe8d4c0605994b80e0a3af",
    "corpus-composition-json-ideal": "91a3c75c3379a07697e72dda3e7ad2c5f21079a4b0de2417f4c963d65d5536c3",
    "corpus-scale-cdf-csv-none": "1748bfde48561518199bca61bd7f82b748a34567602d23a4cdd49ac60308aae6",
    "corpus-scale-cdf-csv-ideal": "4c3c03de7c9212c071889a4057c338c3eb34fe1ddf71a6749aa77ed88aa6bf35",
    "corpus-scale-cdf-json-none": "07c884afbc8e2224d347dc4fe6833e8a0aad04e5d7ac611c4038474740649f5e",
    "corpus-scale-cdf-json-ideal": "80a722f555348f4d726e74136e8e2ee28220ec5719623055f93d044d3a92200f",
    "corpus-overlap-csv-none": "5c1ad7f4c6858407767ebf73b06bf1eb403fa998d2ec0131a01b14ef95865b1b",
    "corpus-overlap-csv-ideal": "17372a4d54c1664108894cd813c71ae695137e469a59653bc974fd1e2632699c",
    "corpus-overlap-json-none": "539497a82fb9be81944b2770dfb6a81ebd19fc33d533b0c012d78db827727805",
    "corpus-overlap-json-ideal": "4ddd8794a0edf59ffcf5e11bfbea09d76927abb21ed1acaa59ffcb409622f571",
    "corpus-validate-csv-none": "88d9c23381dbcbbcc0695ba3d5745fd6d99bcc05fcaa5238bf7846632428e0dd",
    "corpus-validate-csv-ideal": "5a29140193ce91db7412d38a10f9af8f199a8529bfcd88049ee3a5b7e5a0d079",
    "corpus-validate-json-none": "7dee97ae9cb28832278fb24ec7e6b7a0b10160d7afbdd0df984d1be48fb9ab31",
    "corpus-validate-json-ideal": "bf0ee572ba56e34ce4c55128ade288b7dfe68764ed7f12fc93249adabe44a300",
    "corpus-testbed-csv-none": "d48a4323561f3032cb1982e653e9709e379ca061de48760645ab3e7a5a6e42b2",
    "corpus-testbed-csv-ideal": "901046aec9dcdd4787349b74c5ffab086f5d78a996ec98b8f8bac53c5ccaadda",
    "corpus-testbed-json-none": "baee4bc0496f4db683f98c591e41abbe7f4b1a147c5b7acd8e87020b8b31fc75",
    "corpus-testbed-json-ideal": "25ba4d0c05cd48f1e9aedd4b9bd5559ea0b28544bac92f345ce5c02f9538360e",
    "synth-breakdown-csv-none": "9c5d23d89b436a9856c66a4b920aa56f8477504bf998f4df9347631859424cc8",
    "synth-breakdown-csv-ideal": "3d685ec4999ebf02a593126344287e25809d994ef014c879020e1e3552e59933",
    "synth-breakdown-json-none": "013edfe50caec3941890e3ae1f7bb7433ab8c170a94cdaff586bbee31976efe7",
    "synth-breakdown-json-ideal": "38a60abc0aa86e4280a25098ee74410a4fba9001544928d493de6e5512c83ad5",
    "synth-project-one_worker_one_gpu-csv-none": "127d0b251c100a743ba4ad19cfd7c071c8aaf59600b990527e9b04ebbaf7f36c",
    "synth-project-one_worker_one_gpu-csv-ideal": "85482c277dfc575da05fd049fdac736c533f5bbaf002119cabf45d9f54cd33d4",
    "synth-project-one_worker_one_gpu-json-none": "77ff356f82b3cd42176868fe0f64b4f4a668fec99711c2a3b03e2175afc548ff",
    "synth-project-one_worker_one_gpu-json-ideal": "0b7741d2082af0c803a9a4c9e100a2f77f03d1e2f62f842205527d1b754b0841",
    "synth-project-one_worker_n_gpu-csv-none": "4e02bb388b5bd295fd5968ff23cc69eb5a2f50b59946e076cf68ae464a48b5ad",
    "synth-project-one_worker_n_gpu-csv-ideal": "952229bcb0e296e80d52c8ed97e6d700e315be8a7a7d5a7e1293f52747a1f2de",
    "synth-project-one_worker_n_gpu-json-none": "c85e76e0f0fce311b68a70332fef283f5551bf2d67b4a9180eefdca124a31a03",
    "synth-project-one_worker_n_gpu-json-ideal": "9d53bac3f82b805f97082693d00be0b944112cd9dca98611d2b1ba1e6d6b3da5",
    "synth-project-ps_worker-csv-none": "7a581d72d125d0d06e59c50d3530b6faf0b8c53805d8c34fc3c25e9257ddc5ac",
    "synth-project-ps_worker-csv-ideal": "be1e77540f8198d76c6f34abaa7270c2030a92f1a7c91b64dfd797adf2bb7a62",
    "synth-project-ps_worker-json-none": "2e0c0b73a1e84322059ff2fc7c281671e284ca08bef93a411586ec913b5d20b5",
    "synth-project-ps_worker-json-ideal": "725a595285e6d838a4d23285d442b6cb466b4e02d965a805709486cd3d859d9f",
    "synth-project-allreduce_local-csv-none": "1a599cab0e5f1eabb68d83a2332b7ea79976ee0139f82d7a511ac68f523d0961",
    "synth-project-allreduce_local-csv-ideal": "6f177f7dd5521c6024913294409e16856e191684aaf7c2c6268eb4dd461923c0",
    "synth-project-allreduce_local-json-none": "422216a6ed38fd179942939852237bcf885b03801ad085b881a910fd6069bf72",
    "synth-project-allreduce_local-json-ideal": "50dc9871886cb2578f46c91a19cdf32b20ec9cec34271220383baf66af78edbe",
    "synth-project-allreduce_cluster-csv-none": "838f470cf94d8e9258d3c8159b0ba169acd0e76189929372e9055cce08ea7e72",
    "synth-project-allreduce_cluster-csv-ideal": "eaed098ccc289fba6518483ab227dda7c2bba655d2ea941f9321fde674818e8e",
    "synth-project-allreduce_cluster-json-none": "9b5fd59bc8ebd95780606ac1f7bccf2c6834aac31b1e5205eb0eb6c73d679704",
    "synth-project-allreduce_cluster-json-ideal": "6d8f817adb6f152518f9ea0522dc36431af84fdb00397ff8ded9d49142c9d425",
    "synth-project-pearl-csv-none": "f7a68064ea0344f0a20592031ea1985f5c3442955f21affac4398a7131726008",
    "synth-project-pearl-csv-ideal": "aaf3044f6ea7bb862a93be8ea57afb633abcd6ce21045e95cc532b2770061464",
    "synth-project-pearl-json-none": "114e2711df5bcd8a9c9090b546e7295fcebb66a7244c7b239d1b958a302c47f5",
    "synth-project-pearl-json-ideal": "eca8a7463f0307103a4cf3b82abdbe3cce97c878f9afcd64c5907a1e17b1fa4f",
    "synth-candidates-csv-none": "18fe77d55a6d80d6d00817be4120d4ae8253dacdcc9af3eb56baec7511e25055",
    "synth-candidates-csv-ideal": "c9cafbf419d7be05f727547286e7e1bfe1810bc2f49a19138b2a479f30539273",
    "synth-candidates-json-none": "d03355f4633829c7e31ae4d43ae918b8debc55ea83458c66e41b3c3659b4896a",
    "synth-candidates-json-ideal": "0b2f4011cbbdd403513ba950d7fc61a741e2fad1d820910be05e431cd40c339e",
    "synth-composition-csv-none": "8419b368d33756aaa0f88866a8d27421af579326a52f173f26aa6c097a8b9625",
    "synth-composition-csv-ideal": "5c5d04bfd43bf7be9f91834427229ce52e1683b27767464a2ce823693e54bbdd",
    "synth-composition-json-none": "9e54a4e4d237e24602ac5cc9fac73638d4cb1f3188a1ea28d7f76dbcec1b3e2a",
    "synth-composition-json-ideal": "77b19704b9b07824faa0dced13bbfb8a2f658d83696407020a2e79781510f25d",
    "synth-scale-cdf-csv-none": "00818539680a194d6d4f9d9f7ecaea460bdab58b3cd7b93a5af34d1e190fd7a4",
    "synth-scale-cdf-csv-ideal": "b5b04a5a55c3ee79aa8272b54ffc9c9fc95be993526711506b539ca548d2ced7",
    "synth-scale-cdf-json-none": "e72d0925b653685c3ecffb9aecf226bfc8c024b64de21349c56a3ee012e025fc",
    "synth-scale-cdf-json-ideal": "a4d390925fa76b671479c4336e6aa8eef8fcbce6303155daf89e60f2f85c4823",
    "synth-overlap-csv-none": "8934fa5aca9a055c4508203b3b432912810a4c241bc7de7081ca222976136017",
    "synth-overlap-csv-ideal": "2a59d7d002c847f70753868f8bdd494171a841d9f1d01412204275c7c299a274",
    "synth-overlap-json-none": "a916a81fa99d167984e9c188be57526539c58b90f67d80937666f2612ce6cf46",
    "synth-overlap-json-ideal": "dc07cb601a47ae03f252432008e69b4e339e6f8c0cdc747826fab5cba1234ad1",
    "synth-validate-csv-none": "63e1a0b44c61289f1ca530432de8fbacf44cc313c000ee4594c98ad2b56db628",
    "synth-validate-csv-ideal": "98c94cf1c850a464a52ca3ed6992c9ebff9fb2f329bc3a9aa4d9886cffe9d256",
    "synth-validate-json-none": "55678d725f78a9102f9a5e0023eb03448347acb5303daf2959655e27b074c738",
    "synth-validate-json-ideal": "088d6f35312e15cff57572b154b048bcb2c523cbdf3b41031dbf9ac6957a5a11",
    "synth-testbed-csv-none": "20c06a3f2cfb81617b25c089512e6dc9b3f22ad8a29b53658ee41c31e8eeae1d",
    "synth-testbed-csv-ideal": "e5e81f8b6fb02533d447df51d0e0b09bf84a4c2545abacc836ac5959f89bf000",
    "synth-testbed-json-none": "86f2530810f9483d5103d9482e40e40f5ff1e595e2a07dcd424e32e4519ebde4",
    "synth-testbed-json-ideal": "e3229c315faa6eab7231b186908fdcdc06c15db67cd1a3d51cf59f9073401057",
    "malformed-validate-csv-none": "87b66bc58d9d500bf588fe114ba4319a37915539bdd9c9530d6c058fc11b6a23",
    "malformed-validate-csv-ideal": "45f07b6a023ea84943f311308a9dcce267bbb6e5c01b67011db3c6bbadb419b8",
    "malformed-validate-json-none": "75a1015fdcd2011ec0ae66fadeda1fe2aa603c29539c864787af96be08cd9d76",
    "malformed-validate-json-ideal": "96188bb72a5efed75dbfacbfc28f285bcd3aadf21daeec768629bddad9ca1d39",
}


#: SHA-256 of the ``synth --size 1000 --seed 7`` trace that the synth cases read.
SYNTH_TRACE = "41be9edb2ac47e0fb4f3993b812ed2973697b108d4cc7e0b2af1dbd21fa394a9"


def test_synth_trace_digest_is_unchanged(workdir):
    assert hashlib.sha256((workdir / TRACE).read_bytes()).hexdigest() == SYNTH_TRACE


@pytest.mark.parametrize("case", CASES)
def test_report_digest_is_unchanged(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    expected_code = EX_DATA if case.startswith("malformed-") else EX_OK
    assert case_digest(case, expected_code) == GOLDEN[case]
