//! Extension (§VI): collective reads served from the caches.
//! The experiment is `ext_cache_read` in `e10_bench::GATES`.

fn main() -> std::process::ExitCode {
    e10_bench::gate_main("ext_cache_read")
}
