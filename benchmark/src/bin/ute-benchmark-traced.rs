//! The traced benchmark binary: the same program behind a counting
//! allocator, for the `alloc.*` layer metrics.

#[global_allocator]
static ALLOC: ute_benchmark::alloc::CountingAlloc = ute_benchmark::alloc::CountingAlloc;

fn main() {
    std::process::exit(ute_benchmark::main_with(std::env::args().skip(1).collect()));
}
