//! The one caller of `b::call`.

fn main() {
    assert_eq!(b::call(), 1);
}
