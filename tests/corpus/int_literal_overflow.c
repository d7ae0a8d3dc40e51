int main() { int x = 99999999999999999999; return x; }
