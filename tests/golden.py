"""Golden reference data and test helpers shared by the unit and acceptance suites."""

from dataclasses import dataclass

from vfso.scenario import SweepSpec

# Specific attenuation in dB/km for the five standard foggy-condition
# visibility classes at four common operating wavelengths.
# {visibility_m: {wavelength_nm: dB/km}}
FOG_ATTENUATION_TABLE = {
    50: {650: 327.61, 850: 309.21, 1330: 280.77, 1550: 271.66},
    200: {650: 80.19, 850: 73.16, 1330: 62.77, 1550: 59.57},
    500: {650: 31.43, 850: 27.75, 1330: 22.54, 1550: 20.99},
    770: {650: 20.16, 850: 17.46, 1330: 13.73, 1550: 12.65},
    1900: {650: 7.92, 850: 6.52, 1330: 4.71, 1550: 4.22},
}

FOG_TABLE_CELLS = [
    (v_m, wavelength_nm, expected)
    for v_m, row in FOG_ATTENUATION_TABLE.items()
    for wavelength_nm, expected in row.items()
]


@dataclass(frozen=True)
class FixedGrid(SweepSpec):
    """A sweep spec with a hand-written grid, to reach values no linspace yields."""

    values: tuple = ()

    def grid(self) -> list[float]:
        return list(self.values)
