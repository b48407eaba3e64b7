// TCBF-U001 fixture: a workspace example.
fn main() {
    demo::helper();
}
