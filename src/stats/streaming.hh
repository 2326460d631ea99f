/**
 * @file
 * Streaming scalar statistics (Welford).
 */

#ifndef CXLSIM_STATS_STREAMING_HH
#define CXLSIM_STATS_STREAMING_HH

#include <cstdint>

namespace cxlsim::stats {

/** Count / mean / variance / min / max over a stream of doubles. */
class StreamingStats
{
  public:
    void add(double v);
    void merge(const StreamingStats &o);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace cxlsim::stats

#endif  // CXLSIM_STATS_STREAMING_HH
