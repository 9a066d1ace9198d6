fn main() -> std::process::ExitCode {
    cmg_ledger::cli::main()
}
