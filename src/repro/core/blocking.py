"""Block / sub-block geometry of ERI shell blocks.

An ERI shell block ``(pq|uv)`` is a 4-D tensor ``ERI[i, j, k, l]`` with
``i`` running over the Cartesian components of shell *p*, ``j`` over *q*,
``k`` over *u* and ``l`` over *v*.  GAMESS linearises it row-major, so the
1-D stream decomposes into ``num_SB = N1·N2`` contiguous *sub-blocks* of
``SB_size = N3·N4`` elements each (paper Alg. 1, lines 3–4).  The pattern
scaling exploited by PaSTRI holds *across* sub-blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParameterError

#: Cartesian component count per shell letter: (l+1)(l+2)/2.
SHELL_CARTESIANS: dict[str, int] = {
    "s": 1,
    "p": 3,
    "d": 6,
    "f": 10,
    "g": 15,
    "h": 21,
}

#: Angular momentum per shell letter.
SHELL_ANGMOM: dict[str, int] = {"s": 0, "p": 1, "d": 2, "f": 3, "g": 4, "h": 5}

_CONFIG_RE = re.compile(r"^\(?([spdfgh])([spdfgh])\s*\|\s*([spdfgh])([spdfgh])\)?$")


@dataclass(frozen=True)
class BlockSpec:
    """Geometry of one shell-block class.

    Attributes
    ----------
    dims:
        ``(N1, N2, N3, N4)`` — Cartesian sizes of the four shell axes.
    """

    dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.dims) != 4 or any(int(d) < 1 for d in self.dims):
            raise ParameterError(f"block dims must be 4 positive ints, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @classmethod
    def from_config(cls, config: str) -> "BlockSpec":
        """Build from a BF-configuration string like ``"(dd|dd)"`` or ``"fd|ff"``.

        The user supplies the basis-function configuration ahead of time
        (paper §III-B: "the user should provide the information about which
        BF configuration is being used").
        """
        m = _CONFIG_RE.match(config.strip().lower())
        if not m:
            raise ParameterError(
                f"cannot parse BF configuration {config!r}; expected e.g. '(dd|dd)'"
            )
        return cls(tuple(SHELL_CARTESIANS[c] for c in m.groups()))  # type: ignore[arg-type]

    @property
    def block_size(self) -> int:
        """Number of data points per full shell block (N1·N2·N3·N4)."""
        n1, n2, n3, n4 = self.dims
        return n1 * n2 * n3 * n4

    @property
    def sb_size(self) -> int:
        """Sub-block length: N3·N4 (the ket sweep)."""
        return self.dims[2] * self.dims[3]

    @property
    def num_sb(self) -> int:
        """Number of sub-blocks per block: N1·N2 (the bra sweep)."""
        return self.dims[0] * self.dims[1]

    @property
    def config(self) -> str:
        """Best-effort shell-letter rendering of the dims, e.g. ``(dd|dd)``."""
        inv = {v: k for k, v in SHELL_CARTESIANS.items()}
        letters = [inv.get(d, "?") for d in self.dims]
        return f"({letters[0]}{letters[1]}|{letters[2]}{letters[3]})"

    def reshape(self, data):
        """View a 1-D block as a ``(num_sb, sb_size)`` matrix (no copy)."""
        return data.reshape(self.num_sb, self.sb_size)
