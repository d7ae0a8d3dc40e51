int main() { float y = 1e999; return 0; }
