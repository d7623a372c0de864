//! The untraced benchmark binary: links the system allocator untouched.

fn main() {
    std::process::exit(ute_benchmark::main_with(std::env::args().skip(1).collect()));
}
