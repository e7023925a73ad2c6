"""Physical constants (CODATA 2018) and unit conversions.

SI units are used internally everywhere; electronvolts and lab lengths
appear only at input/output boundaries. This table is the single source
of truth for the package.
"""

HBAR_JS = 1.054571817e-34        # reduced Planck constant, J s
ELECTRON_MASS_KG = 9.1093837015e-31
ELEMENTARY_CHARGE_C = 1.602176634e-19

ELECTRON_VOLT_J = ELEMENTARY_CHARGE_C   # 1 eV in joules, exact by SI definition

ANGSTROM_M = 1e-10
NANOMETER_M = 1e-9


def joule_to_ev(energy_j: float) -> float:
    return energy_j / ELECTRON_VOLT_J
