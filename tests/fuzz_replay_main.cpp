// Plain replayer for a libFuzzer entry point: runs LLVMFuzzerTestOneInput
// once per file of the given corpus directories (and files), in sorted
// path order. Any finding aborts the process. Fails when it found no
// input at all, so a moved corpus cannot pass silently.
//
//   fuzz_readers_replay tests/data/fuzz
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path arg(argv[i]);
    if (fs::is_directory(arg)) {
      for (const fs::directory_entry& entry :
           fs::directory_iterator(arg)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else {
      inputs.push_back(arg);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR|FILE...\n", argv[0]);
    return 2;
  }
  for (const fs::path& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  }
  std::printf("replayed %zu inputs\n", inputs.size());
  return 0;
}
