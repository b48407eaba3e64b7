// TCBF-U001 fixture: another crate's integration test.
#[test]
fn calls_demo() {
    demo::tested_elsewhere();
}
