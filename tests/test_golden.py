"""Golden bytes: small sweeps must write exactly the CSVs they always wrote.

The digests were recorded from fig3, fig4 and fig5 at 2 realizations x 60
frames, seed 5, and one naive-predictor maxrect run of the same size. A change
to the frame step that claims bit-identical outputs must keep every digest.
Model files and the LSTM path go through BLAS and are left out, as is
manifest.json, which names the package version and the config hash.

numpy may change its generator streams between versions, so the digests hold
for the numpy they were recorded with, RECORDED_NUMPY. Under another numpy a
mismatch names both versions: it may be a stream change, not a rasim fault.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from rasim.engine import SimulationConfig
from rasim.scenarios import PRESETS, Scenario, ScenarioPoint, run_scenario

RECORDED_NUMPY = "2.4.6"  # the numpy version GOLDEN was recorded and verified with

GOLDEN = {
    'fig3': {
        'fixed_km1000.csv': '4ac7d0c27566bf040056c8b300544fbab83f9153c9f5068ad609fe4c3dc7ee7f',
        'fixed_km250.csv': '3db92fc3b39a15d0b57ba152676c85fcc9199d2c047d0026314632a368e70a4e',
        'fixed_km500.csv': '0a77609e487ee7e9e4d81511354486dfcc3629c3bf124b03170f9fc80b3ff0ef',
        'rs_km1000.csv': '00662d6221997eabf58573fbf18bf19c3b57558e30458927d2ae1654e5c778db',
        'rs_km250.csv': 'c2dd94f56e995541db4148e65267fbcfda45768713b7e6c65d8b95c8dc7cc7a2',
        'rs_km500.csv': 'eddbb8f2d5e25d576e0ff734bd855796d5ec4e89f5b6aaf8548b79a7e8287f7d',
        'summary.csv': 'b2cbfd8c52798bd394378cc07e97ec6c1065607f43011ccd47851abefc811e94',
    },
    'fig4': {
        'gf_km1000.csv': 'bbac3eea67ea6b2da9429e690eadffdb9de636b34cdc5388476fecb39b96e010',
        'gf_km10000.csv': '75bd5d4d8fa9887a924787d90d74a6df5b0456b780b9f9d99f6add04e9fba942',
        'gf_km2000.csv': 'cf6878d7b0ae23b98ffb5732dc4db666754ff91810c302e99df518ba73434921',
        'gf_km20000.csv': '009b8357ae1974ff8145c2c59269e63aa063aedf817218514bd526e39508cc7d',
        'gf_km30000.csv': '16fb19ebe31604cdd24fa34b07e150bf79a8b8ee93c6946f518d9d137abe1eae',
        'gf_km4000.csv': 'bf9500ba09c968cb1d57e69347e59db41d3213d0e33963c8573d38dd1ca2e55f',
        'gf_km7000.csv': '00458bea2a6c79e48be81c108b27548cbab1965ef5e7f85653154b7f593e23be',
        'opt-inv_km1000.csv': 'cbd4998c5e3d5428eda9a6086b06da6d5df58592b2391d5dc44cccc40f698bb1',
        'opt-inv_km10000.csv': 'be466bc5ebbae3b2c189a1977da56f90782e997218958b5a962333c1672df847',
        'opt-inv_km2000.csv': '90bbb9666a75008cba1adb25fffedbf804f046570e6b91ba358e2e66c73d2466',
        'opt-inv_km20000.csv': '191e478f3c5d6f9ca4f99227bab1b5cf717420211c904ed4a5a7e7e60a375343',
        'opt-inv_km30000.csv': 'cde359762b27da8ad3b132e291d28672d01a2cf1f571abf29c6a951dea714516',
        'opt-inv_km4000.csv': '870dd8aee65492b2771959647be61ab6ca2744a2b6d266c6cc3579d290a417ee',
        'opt-inv_km7000.csv': '52a9508e24c6ad188bc7ce39919246dec3d3a06034bd439a9bf9fdb6c9f349b0',
        'opt-lit_km1000.csv': '78e1ab10a8a5ec1368aa26be200063ac05991afa84d43c9ba9c02e73c2ad509e',
        'opt-lit_km10000.csv': '37e3255bc8527c9a9b973c89ff15a0390bff9aff27da61e425ff9cfff653f51a',
        'opt-lit_km2000.csv': '216cbc24096458faae32692bcb8696cb2c169330e962f1ff6830d746f22b9517',
        'opt-lit_km20000.csv': '18dce8d32e21846b3459d58540351e38d76256554790d07f2e48c10245714f02',
        'opt-lit_km30000.csv': 'fea577ed7f46cd007928880e1576916ec5e970c40b8079a7fb2d0a1242263619',
        'opt-lit_km4000.csv': '3073aa855ba1ae37dc6b49a79d191319e1b8a6c048b7c2f60a5bcd8f707cbaf3',
        'opt-lit_km7000.csv': '7af4d132bdee18342fd8a3f447817c70b4d4eb1a4c690aa6d002298a8a2f54e8',
        'static0.4_km1000.csv': '5be569d62f7328141d075397c0e4936a3c7ab107cfbc44be1a72d6515ce5177f',
        'static0.4_km10000.csv': '8e72ae3ce71154e3e72e3c36e90b7375f49ae030dbc641cd4709c4441ea01457',
        'static0.4_km2000.csv': '7dac3f8b27b1a46d92020af5242c778111b7212ba11015bdbcf4f99600051af9',
        'static0.4_km20000.csv': 'fdfb636db6ba0175b0458f7b445213da9f6665ead68cd42e9b19e469ef47ec09',
        'static0.4_km30000.csv': '3b88f63168f42a952d8b542402dcbd1b315a2616db97acc958e9aa9b195f2c08',
        'static0.4_km4000.csv': '92f4c91b6139ef0e241b14ca7002a2cbae24bf85cc1e07a195fe2889d82b5ad6',
        'static0.4_km7000.csv': '38020ade09ac42bd19e11cf8d5c714d2a0940066e3914e45a7e9c81e72b661a7',
        'summary.csv': '99a61412b15872750af48420e9228725320c0a232b8c41eccc9b02a01ecfb4f8',
    },
    'fig5': {
        'full_km10000.csv': 'f642533f544f25bdb1bc6046a8ef10c6687139de5086ef1b094ce8a2b1650de9',
        'full_km120000.csv': '562a742dc687b8890e1b197a3f6e0207d65950d739d08af59de85c672093b3b9',
        'full_km2000.csv': 'f1c83d2c84ccf29f56306b530c30869f6e4d5b53ef266bf419e635b92dde503d',
        'full_km30000.csv': '8608143d293398063a20152552f5ce2c05d0fc10c9a2a221933dc7125412e6b5',
        'full_km60000.csv': '5627273b1c8ff404a4e5c257ee6c5fabb5da7c1de9ea9f4b1fd5d8473e07060b',
        'summary.csv': '068103e2638083b19c4dc2d5c22e705232ca020cca0ea12f091f9bc790e23927',
    },
    'naive': {
        'run.csv': 'd17d120eca14e32c7e34ab68f6356f6109dd12ba1ed1b6c6282858061f96bf99',
        'summary.csv': 'd610af2809f1a59b92b34b2fbd6d6d0c4f52b45ecb2244d0e8a82ef48a174477',
    },
}

BASE = SimulationConfig(realizations=2, frames=60, seed=5)


def _scenario(name: str) -> Scenario:
    if name == "naive":
        cfg = dataclasses.replace(BASE, predictor="naive", slicer="maxrect")
        return Scenario("run", (ScenarioPoint("run", cfg),))
    return PRESETS[name](BASE)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden_digests(tmp_path, name):
    run_scenario(_scenario(name), str(tmp_path))
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert written == GOLDEN[name], (
        f"digests recorded with numpy {RECORDED_NUMPY}, this run has numpy {np.__version__}"
    )
