//! The benchmark's command: real runs, and the parent of traced runs.
//! Carries no counting allocator — the end-to-end numbers are measured
//! with the allocator the service ships with.

fn main() -> std::process::ExitCode {
    hiloc_benchmark::cli::main()
}
