//! `burst-bench <study> [flags]`: regenerates one table, figure or study
//! of the burst scheduling evaluation (`burst-bench --help` lists them).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    burst_bench::cli(&args)
}
