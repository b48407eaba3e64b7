// TCBF-U001 fixture: another crate's library.
fn settings_size() -> usize {
    std::mem::size_of_val(&demo::configure())
}
