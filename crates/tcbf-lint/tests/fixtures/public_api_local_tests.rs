// TCBF-U001 fixture: another crate's integration test whose locals share
// their names with `demo`'s API.
fn fits(limit: usize, rows: usize) -> bool {
    rows <= limit
}

#[test]
fn shapes() {
    let shape = demo::Shape;
    let supported = |rows: usize| rows > 0;
    let rows = shape.rows();
    let cols = demo::Shape::cols();
    let area = rows * cols;
    assert!(supported(rows) && fits(8, area));
}
