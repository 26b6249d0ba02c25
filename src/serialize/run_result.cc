#include "serialize/run_result.h"

#include <array>
#include <vector>

#include "serialize/binary_io.h"

namespace nnr::serialize {
namespace {

constexpr std::array<char, 8> kResultMagic = {'N', 'N', 'R', 'R',
                                              'S', 'L', 'T', '1'};

std::string_view result_magic_view() {
  return {kResultMagic.data(), kResultMagic.size()};
}

template <typename W, typename T>
void put_vector(W& w, const std::vector<T>& v) {
  w.put(static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) w.put_bytes(v.data(), v.size() * sizeof(T));
}

template <typename T, typename R>
std::vector<T> get_vector(R& r) {
  const auto n = r.template get<std::uint64_t>();
  std::vector<T> v(static_cast<std::size_t>(n));
  if (!v.empty()) r.get_bytes(v.data(), v.size() * sizeof(T));
  return v;
}

// Body (everything between magic and trailer) is read through one template,
// so the file and wire readers cannot drift apart.
template <typename R>
core::RunResult read_body(R& r, std::uint64_t key_hi, std::uint64_t key_lo,
                          const std::string& label) {
  const auto stored_hi = r.template get<std::uint64_t>();
  const auto stored_lo = r.template get<std::uint64_t>();
  if (stored_hi != key_hi || stored_lo != key_lo) {
    throw CheckpointError("cached result key mismatch (entry belongs to a "
                          "different cell): " +
                          label);
  }
  core::RunResult result;
  result.test_predictions = get_vector<std::int32_t>(r);
  result.test_confidences = get_vector<float>(r);
  result.final_weights = get_vector<float>(r);
  result.test_accuracy = r.template get<double>();
  result.final_train_loss = r.template get<double>();
  if (!r.exhausted()) {
    throw CheckpointError("trailing bytes after result payload: " + label);
  }
  return result;
}

}  // namespace

core::RunResult load_run_result(const std::string& path, std::uint64_t key_hi,
                                std::uint64_t key_lo) {
  detail::Reader r(path, kResultMagic);
  return read_body(r, key_hi, key_lo, path);
}

std::string encode_run_result(const core::RunResult& result,
                              std::uint64_t key_hi, std::uint64_t key_lo) {
  detail::BufWriter w(result_magic_view());
  w.put(key_hi);
  w.put(key_lo);
  put_vector(w, result.test_predictions);
  put_vector(w, result.test_confidences);
  put_vector(w, result.final_weights);
  w.put(result.test_accuracy);
  w.put(result.final_train_loss);
  return w.finish();
}

core::RunResult decode_run_result(std::string_view bytes,
                                  std::uint64_t key_hi, std::uint64_t key_lo,
                                  const std::string& label) {
  detail::BufReader r(bytes, result_magic_view(), label);
  return read_body(r, key_hi, key_lo, label);
}

bool validate_run_result_bytes(std::string_view bytes, std::uint64_t key_hi,
                               std::uint64_t key_lo) {
  try {
    (void)decode_run_result(bytes, key_hi, key_lo, "<validate>");
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

}  // namespace nnr::serialize
