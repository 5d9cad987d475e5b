"""Workload generators: fio test cases and application benchmarks."""

from .fio import TABLE_IV_CASES, FioResult, FioRun, FioSpec, run_fio
from .sysbench import SysbenchResult, SysbenchRun, SysbenchSpec, run_sysbench
from .tpcc import TPCC_TABLES, TPCCResult, TPCCRun, TPCCSpec, run_tpcc
from .ycsb import YCSB_WORKLOADS, YCSBResult, YCSBRun, YCSBSpec, run_ycsb

__all__ = [
    "TABLE_IV_CASES",
    "FioResult",
    "FioRun",
    "FioSpec",
    "run_fio",
    "SysbenchResult",
    "SysbenchRun",
    "SysbenchSpec",
    "run_sysbench",
    "TPCC_TABLES",
    "TPCCResult",
    "TPCCRun",
    "TPCCSpec",
    "run_tpcc",
    "YCSB_WORKLOADS",
    "YCSBResult",
    "YCSBRun",
    "YCSBSpec",
    "run_ycsb",
]
