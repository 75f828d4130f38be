"""Kernel-path flag kept for readers of run provenance: every kernel is numpy, none is jitted."""

USE_NUMBA = False
