fn main() {
    std::process::exit(vdb_benchmark::cli::main(std::env::args().skip(1).collect()));
}
