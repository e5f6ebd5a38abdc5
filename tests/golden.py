"""Golden reference data and test helpers shared by the unit and acceptance suites."""

from dataclasses import dataclass, fields

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


def budget(result) -> dict:
    """The ten numbers of a LinkBudgetResult under the names of a sweep's columns:
    the seven losses, then the received power, the rate and the margin."""
    b = result.loss_breakdown
    return {
        **{f.name: getattr(b, f.name) for f in fields(b)},
        "received_power_w": result.received_power_w,
        "data_rate_bps": result.data_rate_bps,
        "link_margin_db": result.link_margin_db,
    }


def sweep_row(sweep, i: int) -> dict:
    """Row i of a SweepResult: {column name: float}."""
    return {name: column[i].item() for name, column in sweep.columns.items()}
