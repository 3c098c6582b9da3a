// Replays fuzz inputs through LLVMFuzzerTestOneInput without libFuzzer, so
// every compiler (and the sanitizer CI jobs) runs the checked-in corpus.
//
//   csv_fuzz_replay PATH...   (each PATH a file or a directory of files)
//
// Exits 0 after replaying at least one input; a failed check aborts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    if (fs::is_directory(argv[i])) {
      for (const fs::directory_entry& entry : fs::directory_iterator(argv[i])) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  for (const fs::path& path : inputs) {
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("replayed %zu inputs\n", inputs.size());
  return inputs.empty() ? 1 : 0;
}
