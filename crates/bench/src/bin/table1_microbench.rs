//! Regenerates Table I: tensor-core micro-benchmark results (measured and
//! theoretical peak TeraOps/s) for every evaluated GPU, float16 and the
//! four 1-bit fragment/operand combinations.

#![forbid(unsafe_code)]

use cudapeak::table1;
use tcbf_bench::{fmt_opt, header, print_table};

fn main() {
    header("Table I — tensor-core micro-benchmarks (measured / theoretical TOPs/s)");
    let table = table1();
    let columns = [
        "Input/output",
        "Fragment",
        "AD4000",
        "A100",
        "GH200",
        "W7700",
        "MI210",
        "MI300X",
        "MI300A",
    ];
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|(case, cells)| {
            let mut row = vec![case.type_label(), case.fragment_label()];
            for cell in cells {
                row.push(match cell {
                    Some(r) => format!(
                        "{} / {}",
                        fmt_opt(r.measured_tops, 0),
                        fmt_opt(r.theoretical_tops, 0)
                    ),
                    None => "N/A".to_string(),
                });
            }
            row
        })
        .collect();
    print_table(&columns, &rows);
    println!();
    println!(
        "Note: 1-bit precision is available on NVIDIA GPUs only; the GH200 reaches only ~65% of"
    );
    println!("its peak through the WMMA interface, and its XOR operation is emulated in software.");
}
