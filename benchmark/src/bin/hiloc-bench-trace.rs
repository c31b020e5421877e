//! The traced half of a `--trace 1` run: inline replay with spans and
//! the per-layer replays, under a counting allocator. Started by
//! `hiloc-bench`; prints one JSON object on its last line.

use hiloc_benchmark::alloc::Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> std::process::ExitCode {
    hiloc_benchmark::trace::child_main()
}
