//! README's number tables are renderings of the committed
//! `BENCH_gemm.json`, so a number has one home.  Each table sits between
//! `<!-- BENCH_gemm.json: <list> -->` and `<!-- /BENCH_gemm.json -->`;
//! this test renders the list through `tuner::json` and fails, printing
//! the block README should hold, when the two differ.  To refresh README
//! after regenerating the JSON, paste the printed blocks in.

use tuner::json::{parse, Value};

fn field<'a>(row: &'a Value, key: &str) -> &'a Value {
    row.get(key).unwrap()
}

fn num(row: &Value, key: &str) -> f64 {
    field(row, key).as_f64().unwrap()
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    field(row, key).as_str().unwrap()
}

/// The distinct values of `key` over `rows`, in order of first appearance.
fn distinct(rows: &[Value], key: &impl Fn(&Value) -> String) -> Vec<String> {
    let mut seen = Vec::new();
    for row in rows {
        let k = key(row);
        if !seen.contains(&k) {
            seen.push(k);
        }
    }
    seen
}

/// A markdown table: `header`, the separator, then `body`.
fn table(header: Vec<String>, body: Vec<Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let mut out = line(&header) + &line(&vec!["---".to_string(); header.len()]);
    for cells in body {
        out += &line(&cells);
    }
    out
}

/// A markdown table with one line per value of `row_key` and one column
/// per value of `col_key`; `cell` formats the rows that have both.
fn pivot(
    rows: &[Value],
    corner: &str,
    row_key: impl Fn(&Value) -> String,
    col_key: impl Fn(&Value) -> String,
    cell: impl Fn(&[&Value]) -> String,
) -> String {
    let columns = distinct(rows, &col_key);
    let body = distinct(rows, &row_key).into_iter().map(|r| {
        let mut cells = vec![r.clone()];
        for c in &columns {
            let here: Vec<&Value> = rows
                .iter()
                .filter(|row| row_key(row) == r && col_key(row) == *c)
                .collect();
            assert!(!here.is_empty(), "no row for {r} at {c}");
            cells.push(cell(&here));
        }
        cells
    });
    table(
        [vec![corner.to_string()], columns.clone()].concat(),
        body.collect(),
    )
}

/// `"a × b × …"` of the dimensions `dims` of `row`.
fn shape(row: &Value, dims: &[&str]) -> String {
    let sizes: Vec<String> = dims
        .iter()
        .map(|d| field(row, d).as_usize().unwrap().to_string())
        .collect();
    sizes.join(" × ")
}

/// `entries`: one line per shape, one column per kernel and path; a cell
/// is the median call in ms and the rate in GElem/s.
fn render_entries(rows: &[Value]) -> String {
    pivot(
        rows,
        "`M × N × K`: ms, GElem/s",
        |row| shape(row, &["m", "n", "k"]),
        |row| format!("{} {}", text(row, "kernel"), text(row, "isa")),
        |here| {
            let ms = num(here[0], "fused_median_s") * 1e3;
            format!("{ms:.3}, {:.1}", num(here[0], "gelems_per_s"))
        },
    )
}

/// `prologue`: one line per stage, one column per block shape; a cell is
/// the median in µs on each path, in the file's order of paths.
fn render_prologue(rows: &[Value]) -> String {
    let paths = distinct(rows, &|row| text(row, "isa").to_string());
    pivot(
        rows,
        &format!("µs, {}", paths.join(" / ")),
        |row| format!("`{}`", text(row, "stage")),
        |row| shape(row, &["k", "n"]),
        |here| {
            let us: Vec<String> = here
                .iter()
                .map(|row| format!("{:.1}", num(row, "median_s") * 1e6))
                .collect();
            us.join(" / ")
        },
    )
}

/// `fan_out`: one line per quantile, one column per idle time before the
/// call; a cell is µs.
fn render_fan_out(rows: &[Value]) -> String {
    let mut header = vec!["µs, after busy µs:".to_string()];
    header.extend(
        rows.iter()
            .map(|row| field(row, "after_busy_us").as_usize().unwrap().to_string()),
    );
    let body = ["p10", "p50"].map(|q| {
        let mut cells = vec![q.to_string()];
        cells.extend(
            rows.iter()
                .map(|row| format!("{:.1}", num(row, &format!("{q}_s")) * 1e6)),
        );
        cells
    });
    table(header, body.into())
}

/// The text between `list`'s opening marker and the closing marker that
/// follows it.
fn block<'a>(readme: &'a str, list: &str) -> &'a str {
    let open = format!("<!-- BENCH_gemm.json: {list} -->\n");
    let start = readme
        .find(&open)
        .unwrap_or_else(|| panic!("README has no `{}` marker", open.trim()))
        + open.len();
    let len = readme[start..]
        .find("<!-- /BENCH_gemm.json -->")
        .expect("every opening marker is closed");
    &readme[start..start + len]
}

#[test]
fn readme_number_tables_are_the_rendering_of_the_committed_bench_gemm_json() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let json = std::fs::read_to_string(format!("{root}/BENCH_gemm.json")).unwrap();
    let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
    let bench = parse(&json).unwrap();

    type Render = fn(&[Value]) -> String;
    let renderers: [(&str, Render); 3] = [
        ("entries", render_entries),
        ("prologue", render_prologue),
        ("fan_out", render_fan_out),
    ];
    let mut stale = Vec::new();
    for (list, render) in renderers {
        let expected = render(bench.get(list).unwrap().as_array().unwrap());
        if block(&readme, list) != expected {
            stale.push(format!(
                "<!-- BENCH_gemm.json: {list} -->\n{expected}<!-- /BENCH_gemm.json -->"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "README's tables differ from BENCH_gemm.json; README should hold:\n\n{}",
        stale.join("\n\n")
    );
    // One block per list: a second copy of a table would be a second home.
    let markers = readme.matches("<!-- BENCH_gemm.json: ").count();
    assert_eq!(markers, renderers.len(), "one block per list");
}
