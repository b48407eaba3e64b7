// TCBF-U001 fixture: a binary target of `demo` itself.
fn main() {
    println!("{}", demo::fmt_opt(Some(1.0)));
}
