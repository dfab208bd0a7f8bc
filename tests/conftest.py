"""Shared fixtures.

``oracle`` carries reference values computed with an independent
arbitrary-precision evaluation (30-50 digits) and frozen here; tests compare
against these rather than against the package's own output.

``shared_ckpt`` is one in-memory checkpoint reused for the whole session:
every stored value is path-independent by design, so sharing it cannot
couple tests — it only saves recomputation.
"""

import pytest

from hlq import hlmass

ORACLE = {
    "theta_100": 87.97216523178721962548,
    "theta_1000": 2034.546428038031608703,
    "theta_14": -1.782948700416149906441,
    "theta_2p5": -2.786072180136812406271,
    "Z_first_zero": 1.662010168234303e-16,
    "Z_25.0": -0.01487248389797099820582,
    "Z_100.0": 2.692697056664463474995,
    "Z_1000.5": 2.549261135555555564263,
    "Z_5000.25": 0.05210054391435926773517,
    "first_zero": 14.13472514173469379046,
    "zero_29": 98.83119421819369223332,
    "zero_30": 101.3178510057313912288,
    "g0": 17.84559954041086081683,
    "g1": 23.170282701246309279,
    "g2": 27.67018221781633796094,
    "g0_pi2": 20.65404496936791945292,
    "g100": 238.5825905145029233256,
    "damped_0.05": 13.4949042695493221,
    "I_1": 1.242922861601145795379,
    "I_10": 9.9827346379189925314,
    "I_100": 295.63509905471913,
    "I_200": 736.832710561467886,
    "I_500": 2276.42106804338237,
    "I_1000": 5212.50776333778246,
    # root of F(y) = I_1000 (40-digit solve of the explicit transform)
    "phi_1000": 1868.575931878996433228,
    # root of F(y) = 5224.309542375857 (the T=1000 main term)
    "phi_main_1000": 1872.163053760163986024,
}


@pytest.fixture(scope="session")
def oracle():
    return ORACLE


@pytest.fixture(scope="session")
def quad_cfg():
    return hlmass.QuadratureConfig()


@pytest.fixture(scope="session")
def shared_ckpt(quad_cfg):
    return hlmass.new_checkpoint(quad_cfg)
