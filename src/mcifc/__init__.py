"""Rate-region toolkit for the multicast cognitive interference channel.

Subpackages:
    info_theory  -- finite-alphabet distributions, entropy, mutual information
    polytope     -- exact rational inequality systems, Fourier-Motzkin
                    elimination, projection through a cached integer
                    projection cone, 2-D frontier geometry
    dmc_regions  -- discrete memoryless inner bound, regime checks, capacity
                    regions, encoding-system cross verification
    gaussian     -- closed-form Gaussian regions and log-det MI
    dpc          -- dirty-paper-coding bounds for the two-receiver secondary
                    multicast and the bound-comparison sweep
    cli          -- batch command-line front end
"""

__version__ = "0.1.0"
