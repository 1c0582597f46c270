"""SHA-256 digests of `simulate`, `curves` and `povm` output, pinned.

A refactor of the simulator or of the report writers must leave every byte
of these outputs unchanged. The digests were recorded with numpy 2.4.6 on
x86-64; a numpy or BLAS build that rounds the outcome-law matrix products
differently changes them without any change to this package.
"""

import hashlib

import pytest

from eqfid.cli import main
from eqfid.montecarlo import BLOCK

FIXED = ["--phase-a", "0.4", "--phase-b", "1.9"]
# One phase fixed and one uniform: a register shared by every trial of a
# block next to a register with a phase per trial.
HALF_FIXED = (("a-fixed", ["--phase-a", "0.4"]), ("b-fixed", ["--phase-b", "1.9"]))


def _simulate(strategy, mode, phases, n=3, trials=2000, seed=17):
    return ["simulate", "--strategy", strategy, "--n", str(n), "--trials", str(trials),
            "--seed", str(seed), "--mixed-mode", mode, *phases]


CASES = {
    **{
        f"{strategy}-{mode}-{label}-{fmt}": _simulate(strategy, mode, phases) + ["--format", fmt]
        for strategy in ("measurement", "unified-pair", "unified-collective")
        for mode in ("analytic", "full")
        for label, phases in (("uniform", []), ("fixed", FIXED))
        for fmt in ("json", "csv")
    },
    **{
        f"measurement-block-plus-7-{fmt}": _simulate(
            "measurement", "analytic", [], n=2, trials=BLOCK + 7, seed=9
        ) + ["--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"{strategy}-{mode}-{label}-block-plus-7": _simulate(
            strategy, mode, phases, trials=BLOCK + 7
        )
        for strategy in ("measurement", "unified-pair", "unified-collective")
        for mode in ("analytic", "full")
        for label, phases in HALF_FIXED
    },
    **{
        f"measurement-analytic-uniform-n60-{fmt}": _simulate(
            "measurement", "analytic", [], n=60, trials=3000
        ) + ["--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"curves-{fmt}": ["curves", "--n-min", "1", "--n-max", "60", "--format", fmt]
        for fmt in ("json", "csv")
    },
    **{
        f"povm-{fmt}": ["povm", "--n", "60", "--phase", "2.5", "--format", fmt]
        for fmt in ("json", "csv")
    },
}

DIGESTS = {
    "curves-csv": "7887d59387bf93a164d77eab11fec93b36339504fe6c19c420ec6bfea09e89e3",
    "curves-json": "a52086bf66642d5e449fb0750850c4a1de1019ebba5c1839090782160e75ea35",
    "measurement-analytic-a-fixed-block-plus-7": "f14faec72c6ffe0835efc46e03607d576a74239a3fbfe317a1b3e0954b482650",
    "measurement-analytic-b-fixed-block-plus-7": "aebee621bfcd5be5c60ccd3f4e27335e2895954da3405e43ea2d635f10902657",
    "measurement-analytic-fixed-csv": "4214919e33088b44ebbc0b0d989268a42c52575d2ff3a8fbf5ccad0e44a5fe5b",
    "measurement-analytic-fixed-json": "005b95fc612f1d59e8f1135dc68c100865194fde280049cd20051365108d7fab",
    "measurement-analytic-uniform-csv": "29efeec90c1b5c75b19a6fed68da8e5457489ff0eff8382a1940bc759a72a840",
    "measurement-analytic-uniform-json": "53ad7d188386bed896b63efee286a3af3e0bdca3bc694af88565c22cca69c4e5",
    "measurement-analytic-uniform-n60-csv": "f1dacd6f2a23a21ff791e6c639a57c51edb5b5f688174d1b440d2789e13358fd",
    "measurement-analytic-uniform-n60-json": "cd7ac7399733447b94f7bd90b1752ac4ea3ef80f40b38ef63683c9ef3ac58b90",
    "measurement-block-plus-7-csv": "b38d498a294c76c396b02f12a4fe17fe945083511c2979966bbe7f9a554badf6",
    "measurement-block-plus-7-json": "4554f1090ec0c9ad3df15e4e0388a3dbdea280cf5a0a1d36595dcf04c50986c6",
    "measurement-full-a-fixed-block-plus-7": "322aaa7bcd7f6db5b865f3ff52ecb27bb080e24115f57513ceac0426d2068e9b",
    "measurement-full-b-fixed-block-plus-7": "2add8f89dc3aeaa161572445e7696a922e5eec71cdfd76a29c2baebd4830dadd",
    "measurement-full-fixed-csv": "245fb8c718889dfcc5e0461424b688cde9d84bb612b535c6b0cdfb7e0981eea1",
    "measurement-full-fixed-json": "452a7a83328a409db210950e6ca3a4b680917093543c53ffc91904e8e8e7d44a",
    "measurement-full-uniform-csv": "2dd845d61baf0f22b2e2576c5d64f3b837d1fb55dd018e2e59497530ea58fbb2",
    "measurement-full-uniform-json": "b2962f63cc2a6e45f3ff29817d5db1aadde2db6f3dd926bc4eaadad051752500",
    "povm-csv": "487bff1169d2f894f4595bacfcfc04efea02c1f164c063a531fa25af1e96ff78",
    "povm-json": "7f12b8e1d7d2e0ce4e6ec32c4260975352946dde6dedcf6e6c7c5018aba46f82",
    "unified-collective-analytic-a-fixed-block-plus-7": "1789fcc0e208e24f48552ba6ecfcda14a15c39ced577f5d6d6c4408a90014bb1",
    "unified-collective-analytic-b-fixed-block-plus-7": "ef91ca05e083dcba15f397e5a7b890f5df9a2db31082bfcec6821774d7bda354",
    "unified-collective-analytic-fixed-csv": "3c309e7ede8e305ad48f9f9227b0e7b743aa9dcd954f3b82ecc18a0fd3b825ed",
    "unified-collective-analytic-fixed-json": "e1919d74374e1f6c5c4d13e248194bce40ad4606ddf19975895165a133f38b7a",
    "unified-collective-analytic-uniform-csv": "eed4846cc114f0050d64a37d4d6b31dc57c20ac1076aa38846944586b1df87ec",
    "unified-collective-analytic-uniform-json": "981182b0ed5ca60a365481cc8137b78a9b628ab5c3efe15d1aa8c835b1b97a5b",
    "unified-collective-full-a-fixed-block-plus-7": "03ad1c3fd567e52373aec7d8c624804d62ae197aecac695751577c82a09bb99b",
    "unified-collective-full-b-fixed-block-plus-7": "4f1db5ec31e250b1fb739321a9f13fdcd55bee99589370c71c53e55e98ce2753",
    "unified-collective-full-fixed-csv": "09536340e47a56e8b8d62ce9420fa607a94b9e21b26d5aeb3908bdb2985d2d88",
    "unified-collective-full-fixed-json": "5ce4df7e55be3b7261d8f9323cd74dc34d7d24903f91f6d1b5c8d2b387167fd4",
    "unified-collective-full-uniform-csv": "654fabe594eca07e011fd60d0af8eb6255e30b4617ae394df3c61ae48cda9408",
    "unified-collective-full-uniform-json": "4a459a725a7aaf8bb294f6f97fbeaa9d9ab3374d8ccb7ddb38f1a4b0169f57db",
    "unified-pair-analytic-a-fixed-block-plus-7": "ab9733c1f116c2094cdb1c4a15bb89a95a3eaae731f7d5a0d5c54799dd68aab3",
    "unified-pair-analytic-b-fixed-block-plus-7": "cc98b87ca7c97c66b1331b7786263214f90b16f88ed8c8c05db5f40f6179e7f7",
    "unified-pair-analytic-fixed-csv": "68fdf59f93bb4cf3d7137ca94c84646abf72051d22fe31415b837b7c54fc2f23",
    "unified-pair-analytic-fixed-json": "3ba63608a3e14b3a96d0d17892200fd3e2535e2bf4e3084333bbf4fc67e5c2df",
    "unified-pair-analytic-uniform-csv": "923696396c2199ce4e84537fdc25640bd9321647f0c8624d2f20b66099556ebb",
    "unified-pair-analytic-uniform-json": "eb12c9c76649a371642c40fd14ee9dcb6e6fdbb8559af5b5b0e36db7b3225404",
    "unified-pair-full-a-fixed-block-plus-7": "a3eeec5e710c31e3a003ca1fc7ac7b8603df3174eed90f3a36685220057a490d",
    "unified-pair-full-b-fixed-block-plus-7": "fa2897134582c9eb3ee5d0eca351960557986e1ea82fdc9382896982795dc562",
    "unified-pair-full-fixed-csv": "a32f7e4796d396bd1a522abe700e28b1264e358a9a0440ea72506b0903d9ded7",
    "unified-pair-full-fixed-json": "c01a1d4cb20681fda80efa37f4d71ceb708034243bb2ae7d09d0c8604e94d9db",
    "unified-pair-full-uniform-csv": "36669613c2ff9d7aafb55b2d01df7698ac8d089290cf61906fbf8d3144f035ff",
    "unified-pair-full-uniform-json": "03467527d35d99f0915940af8070708d9e2365029c2fbf45482679cd880af848",
}


def test_every_case_has_a_digest():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name, tmp_path):
    out = tmp_path / "report"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
