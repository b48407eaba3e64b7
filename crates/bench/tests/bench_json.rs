//! The committed `BENCH_gemm.json` is read by the one JSON parser
//! (`tuner::json::parse`) and carries what `hotpath_bench`, the one
//! writer, documents: the schema tag and, per row, the README's keys.

use tuner::json::{parse, Value};

#[test]
fn committed_bench_gemm_json_parses_and_has_the_documented_keys() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    let text = std::fs::read_to_string(path).expect("BENCH_gemm.json is committed");
    let root = parse(&text).expect("written by tuner::json, so read by it");

    let schema = root.get("schema").unwrap().as_str().unwrap();
    assert_eq!(schema, "tcbf-hotpath-bench/v15");
    assert_eq!(root.get("mode").unwrap().as_str().unwrap(), "full");
    assert!(root.get("reps").unwrap().as_usize().unwrap() >= 1);
    assert!(root.get("prologue_reps").unwrap().as_usize().unwrap() >= 1);

    let positive = |row: &Value, key: &str| {
        let v = row.get(key).unwrap().as_f64().unwrap();
        assert!(v.is_finite() && v > 0.0, "{key} = {v}");
        v
    };
    let entries = root.get("entries").unwrap().as_array().unwrap();
    // Which paths each kernel was measured on: `isa` is never null.
    let mut paths = std::collections::BTreeMap::<_, std::collections::BTreeSet<_>>::new();
    for row in entries {
        let kernel = row.get("kernel").unwrap().as_str().unwrap();
        assert!(matches!(kernel, "f16" | "int1"), "{kernel}");
        let isa = row.get("isa").unwrap().as_str().unwrap();
        assert!(matches!(isa, "portable" | "avx512"), "{isa}");
        paths.entry(kernel).or_default().insert(isa);
        for dim in ["m", "n", "k"] {
            assert!(row.get(dim).unwrap().as_usize().unwrap() > 0);
        }
        positive(row, "fused_median_s");
        positive(row, "gelems_per_s");
        // Schema v9: no kernel has a blocking to tune, so no row carries
        // a tuned time beside the fused one.
        for gone in ["tuned_median_s", "tuned_config", "tuned_speedup_vs_default"] {
            assert!(row.get(gone).is_err(), "{gone} left the schema in v9");
        }
        // Schema v11: the host runs one 1-bit kernel for both formulations,
        // so no row names one.
        assert!(row.get("bit_op").is_err(), "bit_op left the schema in v11");
    }
    // 6 shapes x (f16 + int1) on every path of the host that wrote the
    // file — the portable one always among them, and both kernels on the
    // same paths.  Schema v14: the last two shapes are the small-`K`
    // cells at the benchmark's `M × N`.
    assert!(paths["f16"].contains("portable"), "{paths:?}");
    assert_eq!(paths["f16"], paths["int1"]);
    assert_eq!(entries.len(), 6 * 2 * paths["f16"].len());
    let dims = |row: &Value| ["m", "n", "k"].map(|dim| row.get(dim).unwrap().as_usize().unwrap());
    let (_, small_k) = entries.split_at(4 * 2 * paths["f16"].len());
    let (k64, k16) = small_k.split_at(small_k.len() / 2);
    assert!(k64.iter().all(|row| dims(row) == [1024, 128, 64]));
    assert!(k16.iter().all(|row| dims(row) == [1024, 128, 16]));

    let prologue = root.get("prologue").unwrap().as_array().unwrap();
    // 4 block shapes x the kernels' paths x (each quantiser in isolation
    // and of the transposed view), in that order (schema v10: every
    // prologue row names its path; v12: the 1-bit view's row replaced
    // `transpose>quantise_int1`, and v13: the f16 view's row replaced
    // `transpose>quantise_f16`, since no block transposes its samples;
    // v15: the `transpose` row went with the eager transpose's fast path).
    let stages: Vec<&str> = prologue
        .iter()
        .map(|row| row.get("stage").unwrap().as_str().unwrap())
        .collect();
    let per_path = [
        "quantise_f16",
        "quantise_f16(view)",
        "quantise_int1",
        "quantise_int1(view)",
    ];
    assert_eq!(stages, per_path.repeat(4 * paths["f16"].len()));
    fn isa(row: &Value) -> &str {
        row.get("isa").unwrap().as_str().unwrap()
    }
    for shape in prologue.chunks(per_path.len() * paths["f16"].len()) {
        // The rows of a shape are rows of one block, on every path.
        let dims = |row: &Value| ["k", "n"].map(|dim| row.get(dim).unwrap().as_usize().unwrap());
        assert!(shape.iter().all(|row| dims(row) == dims(&shape[0])));
        assert!(dims(&shape[0]).iter().all(|&dim| dim > 0));
        let shape_paths: std::collections::BTreeSet<_> = shape.iter().map(isa).collect();
        assert_eq!(shape_paths, paths["f16"]);
        for rows in shape.chunks(per_path.len()) {
            assert!(rows.iter().all(|row| isa(row) == isa(&rows[0])));
        }
    }
    for row in prologue {
        assert_eq!(row.get("unit").unwrap().as_str().unwrap(), "Melem/s");
        positive(row, "median_s");
        positive(row, "rate");
    }

    // The hand-off of an empty two-item `par_chunks_mut`: back to back, then
    // after 0.3, 1.5 and 5 ms of single-threaded busy work.
    assert!(root.get("fan_out_rounds").unwrap().as_usize().unwrap() >= 400);
    let fan_out = root.get("fan_out").unwrap().as_array().unwrap();
    let after_busy = |row: &Value| row.get("after_busy_us").unwrap().as_usize().unwrap();
    let busy: Vec<usize> = fan_out.iter().map(after_busy).collect();
    assert_eq!(busy, [0, 300, 1_500, 5_000]);
    for row in fan_out {
        assert!(positive(row, "p10_s") <= positive(row, "p50_s"));
    }
}
