#include "streaming.hh"

#include <algorithm>
#include <cmath>

namespace cxlsim::stats {

void
StreamingStats::add(double v)
{
    if (n_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
}

void
StreamingStats::merge(const StreamingStats &o)
{
    if (o.n_ == 0)
        return;
    if (n_ == 0) {
        *this = o;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += o.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ += o.n_;
}

void
StreamingStats::reset()
{
    *this = StreamingStats{};
}

double
StreamingStats::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
StreamingStats::stddev() const
{
    return std::sqrt(variance());
}

}  // namespace cxlsim::stats
