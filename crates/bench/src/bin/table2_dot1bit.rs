//! Regenerates Table II (the 1-bit vector dot-product worked example) and
//! Fig. 1 (the 1-bit complex constellation).

#![forbid(unsafe_code)]

use tcbf_bench::{header, print_table};
use tcbf_types::{OneBitComplex, PackedBits};

fn main() {
    header("Fig. 1 — 1-bit complex constellation");
    let rows: Vec<Vec<String>> = OneBitComplex::constellation()
        .iter()
        .map(|p| {
            vec![
                format!("{:02b}", p.binary_code()),
                format!("{:+.0}{:+.0}i", p.to_complex32().re, p.to_complex32().im),
            ]
        })
        .collect();
    print_table(&["binary", "value"], &rows);

    header("Table II — 1-bit vector dot product (K = 4)");
    let a_dec = [1i32, -1, 1, -1];
    let b_dec = [1i32, 1, -1, -1];
    let a = PackedBits::pack(&a_dec.map(|v| v > 0));
    let b = PackedBits::pack(&b_dec.map(|v| v > 0));
    let rows: Vec<Vec<String>> = (0..4)
        .map(|k| {
            vec![
                a_dec[k].to_string(),
                b_dec[k].to_string(),
                (a_dec[k] * b_dec[k]).to_string(),
                u8::from(a.get(k)).to_string(),
                u8::from(b.get(k)).to_string(),
                u8::from(a.get(k) != b.get(k)).to_string(),
            ]
        })
        .collect();
    print_table(&["A", "B", "A*B", "A(bin)", "B(bin)", "A xor B"], &rows);
    let popc: u32 = (0..4).map(|k| u32::from(a.get(k) != b.get(k))).sum();
    println!();
    println!(
        "sum(A*B)            = {}",
        a_dec.iter().zip(&b_dec).map(|(x, y)| x * y).sum::<i32>()
    );
    println!("popc(A xor B)       = {popc}");
    println!("K - 2 popc(A xor B) = {}", a.dot_xor(&b));
    println!("AND formulation     = {}", a.dot_and(&b));
    assert_eq!(a.dot_xor(&b), a.dot_and(&b));
}
