fn main() {
    vida_benchmark::main();
}
