import sys, time
"""Driver-simulation harness: run every __ray_entry__.queries() entry and
compare against its oracle_sql() via DuckDB (exact values). Usage:
    python tools/check_oracle.py [SF_DIR] [entry ...]
Exits 1 when any entry errors or differs from its oracle. Ray gets
RAY_GRAFT_CPUS logical CPUs (default 8).
"""
import os
import duckdb, numpy as np, pandas as pd
import ray
ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", 8)),
         include_dashboard=False, logging_level="ERROR")
print("Ray CPUs:", ray.cluster_resources().get("CPU"), flush=True)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import __ray_entry__ as E

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
con = duckdb.connect()
for t in ["region","nation","customer","supplier","part","orders","lineitem","events","documents","embeddings"]:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")

def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)

qs, osql = E.queries(), E.oracle_sql()
only = sys.argv[2:] or list(qs)
fails = []
for name in only:
    fn = qs[name]
    t0 = time.time()
    try:
        res = fn(SF)
    except Exception as e:
        import traceback; traceback.print_exc()
        fails.append(name); print(f"ERROR {name}: {e}"); continue
    el = time.time() - t0
    if hasattr(res, "to_pandas"): res = res.to_pandas()
    if name not in osql:
        print(f"rows-only {name}: {len(res)} rows ({el:.1f}s)"); continue
    ora = con.sql(osql[name]).df()
    a, b = norm(pd.DataFrame(res)), norm(ora)
    ok_shape = list(a.columns) == list(b.columns) and len(a) == len(b)
    ok_vals = False
    if ok_shape:
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
            ok_vals = True
        except AssertionError as e:
            msg = str(e).split("\n")[0]
    if ok_shape and ok_vals:
        print(f"PASS {name}: {len(a)} rows ({el:.1f}s)")
    else:
        fails.append(name)
        print(f"FAIL {name}: shape_ok={ok_shape} cols={list(a.columns)} vs {list(b.columns)} rows {len(a)} vs {len(b)}")
        if ok_shape: print("   ", msg)
        print("    mine:", a.head(3).to_dict("records"))
        print("    orcl:", b.head(3).to_dict("records"))
print("FAILS:", fails)
ray.shutdown()
sys.exit(1 if fails else 0)
