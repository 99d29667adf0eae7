"""freqpath: an exact-arithmetic laboratory for prime-labeled path graphs
on R/QZ, layered frequency pyramids, and planted global-frequency recovery.
"""

__version__ = "0.1.0"
