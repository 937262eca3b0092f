// THE single-radio deviation scanner and exact best-response DP — one
// implementation, shared by GameModel's scans (core/game_model.cpp), the
// cached dynamics driver (core/alloc/best_response.cpp), the snapshot
// scanner (core/analysis/snapshot_scan.h) and the O(1) benefit helpers
// (core/analysis/deviation.cpp). The scan order (deploys, then per-source
// parks and moves), the strict-'>' tie policy (BestChangePicker) and the
// share() arithmetic are load-bearing: every caller must walk bit-identical
// trajectories, so they must come from this file and nowhere else.
//
// `RateAt` is any callable `double(ChannelId, RadioCount)` returning the
// total rate of a channel at a load; `cost` is the per-radio energy price
// (0 for the paper's game).
//
// `LoadAt` is any callable `RadioCount(ChannelId)` returning the load the
// DEVIATING user experiences on a channel. The single-collision-domain
// overloads below pass the global column sum; interference-graph models
// pass the user's closed-neighborhood perceived load. Both satisfy the one
// property the arithmetic relies on: moving the user's own radio changes
// the load it sees by exactly +/-1 (the user is in its own closed
// neighborhood), so every benefit formula generalizes by substituting the
// accessor and nothing else.
//
// Hot-path layout: every scan runs in two steps. Step one fills three
// contiguous per-channel share arrays (current share, share after adding a
// radio, share after removing one): fill_scan_kernels prices them for one
// user at the loads it sees. Step two, enumerate_single_changes, orders the
// candidates and assembles their benefits as pure array reads. Each
// candidate's benefit uses exactly the same expression shape the
// per-candidate helpers use — same terms, same grouping — so the flat
// kernels are bit-identical to the scalar path. `scan_single_changes_pruned`
// additionally restricts the enumeration to candidates touching a
// caller-proven "dirty" channel set (see UtilityCache::plan_scan);
// everything it omits was <= tolerance at the user's last completed scan
// and is unchanged since.
//
// Candidate orders: there are two, held equal. enumerate_single_changes
// visits every candidate in the enumeration order above. In the single
// collision domain, best_single_change_ranked reads the kernels from a
// ShareTable priced once per snapshot and visits the destinations the user
// does not occupy in the table's ranking instead (row-0 gain_to,
// descending). On such a destination before = 0.0, so a candidate's
// benefit — the same expression — is a monotone non-decreasing function
// of gain_to (IEEE round-to-nearest is monotone; kernels are finite, since
// RateTable rejects non-finite rates), and the walk can stop at the first
// smaller benefit. It keeps walking through equal ones, for the smallest
// index: rounding can tie a lower-ranked channel with a lower index. Both
// give BestChangePicker's answer, change and benefit bits;
// test_snapshot_scan checks that against GameModel::best_single_change on
// random and herding states of every scenario kind, and on a rate table
// whose rates differ by one ulp, so that ranking and rounded benefits
// disagree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "core/analysis/deviation.h"
#include "core/strategy.h"
#include "core/types.h"

namespace mrca {
namespace detail {

/// User's rate share with `own` of `load` radios on a channel paying
/// `rate`. Zero own radios earn zero.
inline double share(double rate, RadioCount own, RadioCount load) {
  if (own <= 0 || load <= 0) return 0.0;
  return static_cast<double>(own) / static_cast<double>(load) * rate;
}

/// Reusable per-scan scratch: the user's dense row, the loads it
/// perceives, and the three flat share kernels every candidate benefit is
/// assembled from. Hoisting this out of the scan lets a dynamics driver
/// run millions of activations with zero per-activation allocation.
struct ScanBuffers {
  std::vector<RadioCount> own;     // user's row, densified
  std::vector<RadioCount> load;    // load the user perceives per channel
  std::vector<double> before;      // share at the current allocation
  std::vector<double> gain_to;     // share after adding one radio
  std::vector<double> gain_from;   // share after removing one radio

  void resize(std::size_t channels) {
    own.resize(channels);
    load.resize(channels);
    before.resize(channels);
    gain_to.resize(channels);
    gain_from.resize(channels);
  }
};

template <typename RateAt, typename LoadAt>
double move_benefit_at(const StrategyMatrix& strategies, UserId user,
                       ChannelId from, ChannelId to, RateAt rate_at,
                       LoadAt load_at) {
  if (from == to) return 0.0;
  const RadioCount own_from = strategies.at(user, from);
  const RadioCount own_to = strategies.at(user, to);
  const RadioCount load_from = load_at(from);
  const RadioCount load_to = load_at(to);
  const double before = share(rate_at(from, load_from), own_from, load_from) +
                        share(rate_at(to, load_to), own_to, load_to);
  const double after =
      share(rate_at(from, load_from - 1), own_from - 1, load_from - 1) +
      share(rate_at(to, load_to + 1), own_to + 1, load_to + 1);
  return after - before;
}

/// Deploying one spare radio pays the energy price; a move is cost-neutral.
template <typename RateAt, typename LoadAt>
double deploy_benefit_at(const StrategyMatrix& strategies, UserId user,
                         ChannelId channel, RateAt rate_at, double cost,
                         LoadAt load_at) {
  const RadioCount own = strategies.at(user, channel);
  const RadioCount load = load_at(channel);
  return share(rate_at(channel, load + 1), own + 1, load + 1) -
         share(rate_at(channel, load), own, load) - cost;
}

/// Parking one radio refunds the energy price.
template <typename RateAt, typename LoadAt>
double park_benefit_at(const StrategyMatrix& strategies, UserId user,
                       ChannelId channel, RateAt rate_at, double cost,
                       LoadAt load_at) {
  const RadioCount own = strategies.at(user, channel);
  const RadioCount load = load_at(channel);
  return share(rate_at(channel, load - 1), own - 1, load - 1) -
         share(rate_at(channel, load), own, load) + cost;
}

/// A user's three share kernels on one channel: its share at the current
/// allocation, after adding one radio and after removing one, given
/// `rate_of(load)`, the channel's total rate at a load. gain_from is only
/// meaningful (and only ever read) on occupied channels; the guard keeps
/// rate_of off negative loads for empty ones. gain_to is only read when the
/// channel can receive one of the user's radios (`receivable`: a spare to
/// deploy, or a radio on another channel to move); the guard keeps rate_of
/// off load + 1 on a channel that already carries every radio of the game,
/// a load no legal change reaches. Every scan's kernels, per-user or
/// tabulated, come from here.
struct ShareKernels {
  double before;
  double gain_to;
  double gain_from;
};

template <typename RateOf>
inline ShareKernels share_kernels(RadioCount own, RadioCount load,
                                  bool receivable, RateOf rate_of) {
  return {share(rate_of(load), own, load),
          receivable ? share(rate_of(load + 1), own + 1, load + 1) : 0.0,
          own > 0 ? share(rate_of(load - 1), own - 1, load - 1) : 0.0};
}

/// Fills the three share kernels for channel `c` from buf.own / buf.load.
template <typename RateAt>
inline void fill_share_kernels(ScanBuffers& buf, ChannelId c, RateAt rate_at,
                               bool receivable) {
  const ShareKernels kernels =
      share_kernels(buf.own[c], buf.load[c], receivable,
                    [&](RadioCount load) { return rate_at(c, load); });
  buf.before[c] = kernels.before;
  buf.gain_to[c] = kernels.gain_to;
  buf.gain_from[c] = kernels.gain_from;
}

/// Step one of a per-user scan: fills buf.own, buf.load and the three
/// share kernels of `user` at the loads `load_at` reports.
template <typename RateAt, typename LoadAt>
void fill_scan_kernels(const StrategyMatrix& strategies, UserId user,
                       RateAt rate_at, bool has_spare, LoadAt load_at,
                       ScanBuffers& buf) {
  const std::size_t channels = strategies.num_channels();
  buf.resize(channels);
  strategies.copy_row(user, buf.own);
  for (ChannelId c = 0; c < channels; ++c) buf.load[c] = load_at(c);
  const RadioCount deployed = strategies.user_total(user);
  for (ChannelId c = 0; c < channels; ++c) {
    fill_share_kernels(buf, c, rate_at, has_spare || buf.own[c] < deployed);
  }
}

/// One occupied entry of a user's row: `own` > 0 radios on `channel`.
struct RowEntry {
  ChannelId channel;
  RadioCount own;
};

/// Snapshot share table for the single collision domain. There every user
/// sees the same loads, so the three kernels of a channel depend only on
/// the user's own count there: one build prices each channel once, and a
/// user's scan then reads its kernels instead of recomputing them. Entries
/// are own-major (row `own` holds every channel), so a user's kernels are
/// row 0 patched at its occupied channels. Entries come from share_kernels,
/// as in a per-user fill; a channel is receivable while its load is below
/// `total_radios` (a load no legal change exceeds), so a strict rate table
/// is never read past the game's radios.
///
/// The build also ranks the channels by their row-0 gain_to kernel,
/// descending, ascending channel index on equal values: the destination
/// order best_single_change_ranked walks.
class ShareTable {
 public:
  /// Prices every channel at `loads` for own counts 0..max_own. Own counts
  /// above a channel's load cannot occur and stay zero.
  template <typename RateAt>
  void build(std::span<const RadioCount> loads, RadioCount max_own,
             RadioCount total_radios, RateAt rate_at) {
    channels_ = loads.size();
    const std::size_t entries =
        (static_cast<std::size_t>(max_own) + 1) * channels_;
    before_.assign(entries, 0.0);
    gain_to_.assign(entries, 0.0);
    gain_from_.assign(entries, 0.0);
    for (ChannelId c = 0; c < channels_; ++c) {
      // Each rate is read once per channel and served to every own count.
      const RadioCount load = loads[c];
      const bool receivable = load < total_radios;
      const double rate = rate_at(c, load);
      const double rate_to = receivable ? rate_at(c, load + 1) : 0.0;
      const double rate_from = load > 0 ? rate_at(c, load - 1) : 0.0;
      const auto rate_of = [&](RadioCount at_load) {
        return at_load == load ? rate : at_load > load ? rate_to : rate_from;
      };
      const RadioCount top = std::min(max_own, load);
      for (RadioCount own = 0; own <= top; ++own) {
        const ShareKernels kernels =
            share_kernels(own, load, receivable, rate_of);
        const std::size_t at = static_cast<std::size_t>(own) * channels_ + c;
        before_[at] = kernels.before;
        gain_to_[at] = kernels.gain_to;
        gain_from_[at] = kernels.gain_from;
      }
    }
    ranking_.resize(channels_);
    for (ChannelId c = 0; c < channels_; ++c) ranking_[c] = {gain_to_[c], c};
    std::ranges::sort(ranking_, [](const Ranked& a, const Ranked& b) {
      return a.gain_to > b.gain_to ||
             (a.gain_to == b.gain_to && a.channel < b.channel);
    });
    // level_end_[i]: the first rank past the run of rank i's kernel value.
    level_end_.resize(channels_);
    for (std::size_t i = channels_; i-- > 0;) {
      level_end_[i] = i + 1 < channels_ &&
                              ranking_[i].gain_to == ranking_[i + 1].gain_to
                          ? level_end_[i + 1]
                          : i + 1;
    }
  }

  /// The kernels of a user holding `own` radios on `channel`.
  ShareKernels kernels(ChannelId channel, RadioCount own) const {
    const std::size_t at = static_cast<std::size_t>(own) * channels_ + channel;
    return {before_[at], gain_to_[at], gain_from_[at]};
  }

  /// A channel of one kernel level and the rank where the next level
  /// starts; `rank_after` is past the ranking when `to` is none.
  struct Head {
    std::optional<ChannelId> to;
    std::size_t rank_after;
  };

  /// From rank `rank` on, the first level holding a channel `admits`
  /// accepts, with its smallest such channel (ranks within a level ascend
  /// by index).
  template <typename Admits>
  Head next_head(std::size_t rank, Admits admits) const {
    while (rank < channels_) {
      const std::size_t end = level_end_[rank];
      for (; rank < end; ++rank) {
        if (admits(ranking_[rank].channel)) {
          return {ranking_[rank].channel, end};
        }
      }
    }
    return {std::nullopt, channels_};
  }

 private:
  std::size_t channels_ = 0;
  std::vector<double> before_;
  std::vector<double> gain_to_;
  std::vector<double> gain_from_;
  struct Ranked {
    double gain_to;  // row 0
    ChannelId channel;
  };
  std::vector<Ranked> ranking_;
  std::vector<std::size_t> level_end_;
};

/// Step two of every scan: enumerates `user`'s single-radio changes from
/// the filled kernels in buf — deploys onto `targets` first (only when
/// `has_spare`), then per occupied source channel its park (when
/// `with_parks`) and its moves onto `targets` — feeding each candidate to
/// `consider(SingleChange)`. `targets` is every channel for a full scan
/// and the dirty set for a pruned one. This is the only place candidates
/// are ordered and their benefits assembled; the enumeration order is part
/// of the determinism contract.
template <typename Targets, typename Consider>
void enumerate_single_changes(UserId user, double cost, bool has_spare,
                              bool with_parks, const ScanBuffers& buf,
                              const Targets& targets, Consider&& consider) {
  if (has_spare) {
    for (const ChannelId to : targets) {
      consider(SingleChange{SingleChange::Kind::kDeploy, user, /*from=*/0, to,
                            buf.gain_to[to] - buf.before[to] - cost});
    }
  }
  const std::size_t channels = buf.own.size();
  for (ChannelId from = 0; from < channels; ++from) {
    if (buf.own[from] <= 0) continue;
    if (with_parks) {
      consider(SingleChange{SingleChange::Kind::kPark, user, from, /*to=*/0,
                            buf.gain_from[from] - buf.before[from] + cost});
    }
    for (const ChannelId to : targets) {
      if (to == from) continue;
      consider(SingleChange{
          SingleChange::Kind::kMove, user, from, to,
          (buf.gain_from[from] + buf.gain_to[to]) -
              (buf.before[from] + buf.before[to])});
    }
  }
}

/// Enumerates every single-radio change of `user` (fill, then enumerate
/// over all channels).
template <typename RateAt, typename LoadAt, typename Consider>
void scan_single_changes(const StrategyMatrix& strategies, UserId user,
                         RateAt rate_at, double cost, bool has_spare,
                         LoadAt load_at, ScanBuffers& buf,
                         Consider&& consider) {
  fill_scan_kernels(strategies, user, rate_at, has_spare, load_at, buf);
  enumerate_single_changes(
      user, cost, has_spare, /*with_parks=*/true, buf,
      std::views::iota(ChannelId{0}, strategies.num_channels()),
      std::forward<Consider>(consider));
}

/// Partial rescan against a proven-clean memo: the caller guarantees that
/// `user`'s row is unchanged since a completed scan that found no candidate
/// above tolerance, and that every channel whose load (as seen by `user`)
/// changed since then is listed in `dirty` (ascending). Candidates that
/// touch no dirty channel then keep their last-scanned benefit, still
/// <= tolerance, so only deploys onto and moves onto a dirty channel need
/// recomputation — in the same relative order the full scan would visit
/// them, which keeps argmax and list results identical to a full rescan.
/// If one of the user's own channels is dirty, every move out of it (any
/// destination) must be repriced, so the scan falls back to the full flat
/// kernel — trivially identical to the unpruned scan.
template <typename RateAt, typename LoadAt, typename Consider>
void scan_single_changes_pruned(const StrategyMatrix& strategies, UserId user,
                                RateAt rate_at, double cost, bool has_spare,
                                LoadAt load_at,
                                std::span<const ChannelId> dirty,
                                ScanBuffers& buf, Consider&& consider) {
  const std::size_t channels = strategies.num_channels();
  buf.resize(channels);
  strategies.copy_row(user, buf.own);
  for (const ChannelId c : dirty) {
    if (buf.own[c] > 0) {
      scan_single_changes(strategies, user, rate_at, cost, has_spare, load_at,
                          buf, std::forward<Consider>(consider));
      return;
    }
  }
  // Fill loads and share kernels only where a candidate can read them:
  // dirty destinations and the user's occupied source channels (the two
  // sets are disjoint here, so no candidate moves onto a source channel).
  const bool receivable = has_spare || strategies.user_total(user) > 0;
  for (const ChannelId c : dirty) {
    buf.load[c] = load_at(c);
    fill_share_kernels(buf, c, rate_at, receivable);
  }
  for (ChannelId c = 0; c < channels; ++c) {
    if (buf.own[c] <= 0) continue;
    buf.load[c] = load_at(c);
    fill_share_kernels(buf, c, rate_at, /*receivable=*/false);
  }
  // Parks are skipped outright: a clean source channel's park benefit is
  // unchanged and was <= tolerance.
  enumerate_single_changes(user, cost, has_spare, /*with_parks=*/false, buf,
                           dirty, std::forward<Consider>(consider));
}

/// The tie rule every best-single-change search applies: the first
/// candidate, in enumeration order, with the strictly largest benefit
/// above `tolerance`.
struct BestChangePicker {
  double tolerance;
  std::optional<SingleChange> best;

  void operator()(const SingleChange& candidate) {
    if (candidate.benefit <= tolerance) return;
    if (!best || candidate.benefit > best->benefit) best = candidate;
  }
};

/// The best single change of a user holding `row` (its occupied entries,
/// ascending channel) at the snapshot `table` prices: the change, with the
/// benefit bits, that BestChangePicker takes from enumerate_single_changes
/// over every channel, found without pricing every (from, to) pair.
///
/// The enumeration's candidates fall into groups: the deploys, and per
/// occupied source its park and its moves. A group's candidates are
/// consecutive and ascend by destination, so the picker can only take a
/// group's first largest benefit, and each group reaches the picker as
/// that one candidate, in enumeration order. Destinations the user
/// occupies (at most k) are priced directly; the others are walked in
/// ranking order (see "Candidate orders" above), through equal benefits,
/// to the first smaller one.
inline std::optional<SingleChange> best_single_change_ranked(
    const ShareTable& table, UserId user, std::span<const RowEntry> row,
    double tolerance, double cost, bool has_spare) {
  const auto unoccupied = [&](ChannelId c) {
    for (const RowEntry& entry : row) {
      if (entry.channel == c) return false;
    }
    return true;
  };
  // Channels of one kernel level price to the same benefit, so the walk
  // visits each level once, through its smallest unoccupied channel. The
  // first two levels, read once, serve every group; only a rounding tie
  // walks further.
  const ShareTable::Head first = table.next_head(0, unoccupied);
  const ShareTable::Head second = table.next_head(first.rank_after, unoccupied);
  const ShareKernels first_kernels =
      first.to ? table.kernels(*first.to, 0) : ShareKernels{};
  const ShareKernels second_kernels =
      second.to ? table.kernels(*second.to, 0) : ShareKernels{};
  BestChangePicker picker{tolerance, std::nullopt};
  const auto offer_group = [&](SingleChange::Kind kind, ChannelId from,
                               auto benefit_of) {
    bool found = first.to.has_value();
    ChannelId best_to = first.to.value_or(0);
    double best = found ? benefit_of(first_kernels) : 0.0;
    if (second.to && benefit_of(second_kernels) >= best) {
      best_to = std::min(best_to, *second.to);
      for (ShareTable::Head head =
               table.next_head(second.rank_after, unoccupied);
           head.to; head = table.next_head(head.rank_after, unoccupied)) {
        if (benefit_of(table.kernels(*head.to, 0)) < best) break;
        best_to = std::min(best_to, *head.to);
      }
    }
    for (const RowEntry& entry : row) {
      if (kind == SingleChange::Kind::kMove && entry.channel == from) continue;
      const double benefit =
          benefit_of(table.kernels(entry.channel, entry.own));
      if (!found || benefit > best ||
          (benefit == best && entry.channel < best_to)) {
        found = true;
        best_to = entry.channel;
        best = benefit;
      }
    }
    if (found) picker(SingleChange{kind, user, from, best_to, best});
  };
  if (has_spare) {
    offer_group(SingleChange::Kind::kDeploy, /*from=*/0,
                [cost](const ShareKernels& to) {
                  return to.gain_to - to.before - cost;
                });
  }
  for (const RowEntry& source : row) {
    const ShareKernels from = table.kernels(source.channel, source.own);
    picker(SingleChange{SingleChange::Kind::kPark, user, source.channel,
                        /*to=*/0, from.gain_from - from.before + cost});
    offer_group(SingleChange::Kind::kMove, source.channel,
                [&from](const ShareKernels& to) {
                  return (from.gain_from + to.gain_to) -
                         (from.before + to.before);
                });
  }
  return picker.best;
}

template <typename RateAt, typename LoadAt>
std::optional<SingleChange> best_single_change(const StrategyMatrix& strategies,
                                               UserId user, double tolerance,
                                               RateAt rate_at, double cost,
                                               bool has_spare, LoadAt load_at,
                                               ScanBuffers& buf) {
  BestChangePicker picker{tolerance, std::nullopt};
  scan_single_changes(strategies, user, rate_at, cost, has_spare, load_at,
                      buf, picker);
  return picker.best;
}

template <typename RateAt, typename LoadAt>
std::optional<SingleChange> best_single_change(const StrategyMatrix& strategies,
                                               UserId user, double tolerance,
                                               RateAt rate_at, double cost,
                                               bool has_spare, LoadAt load_at) {
  ScanBuffers buf;
  return best_single_change(strategies, user, tolerance, rate_at, cost,
                            has_spare, load_at, buf);
}

template <typename RateAt>
std::optional<SingleChange> best_single_change(const StrategyMatrix& strategies,
                                               UserId user, double tolerance,
                                               RateAt rate_at, double cost,
                                               bool has_spare) {
  return best_single_change(
      strategies, user, tolerance, rate_at, cost, has_spare,
      [&](ChannelId c) { return strategies.channel_load(c); });
}

/// best_single_change over the pruned candidate set (see
/// scan_single_changes_pruned for the validity contract).
template <typename RateAt, typename LoadAt>
std::optional<SingleChange> best_single_change_pruned(
    const StrategyMatrix& strategies, UserId user, double tolerance,
    RateAt rate_at, double cost, bool has_spare, LoadAt load_at,
    std::span<const ChannelId> dirty, ScanBuffers& buf) {
  BestChangePicker picker{tolerance, std::nullopt};
  scan_single_changes_pruned(strategies, user, rate_at, cost, has_spare,
                             load_at, dirty, buf, picker);
  return picker.best;
}

template <typename RateAt, typename LoadAt>
std::vector<SingleChange> improving_changes(const StrategyMatrix& strategies,
                                            UserId user, double tolerance,
                                            RateAt rate_at, double cost,
                                            bool has_spare, LoadAt load_at,
                                            ScanBuffers& buf) {
  std::vector<SingleChange> result;
  scan_single_changes(strategies, user, rate_at, cost, has_spare, load_at,
                      buf, [&](const SingleChange& candidate) {
                        if (candidate.benefit > tolerance) {
                          result.push_back(candidate);
                        }
                      });
  return result;
}

template <typename RateAt, typename LoadAt>
std::vector<SingleChange> improving_changes(const StrategyMatrix& strategies,
                                            UserId user, double tolerance,
                                            RateAt rate_at, double cost,
                                            bool has_spare, LoadAt load_at) {
  ScanBuffers buf;
  return improving_changes(strategies, user, tolerance, rate_at, cost,
                           has_spare, load_at, buf);
}

template <typename RateAt>
std::vector<SingleChange> improving_changes(const StrategyMatrix& strategies,
                                            UserId user, double tolerance,
                                            RateAt rate_at, double cost,
                                            bool has_spare) {
  return improving_changes(
      strategies, user, tolerance, rate_at, cost, has_spare,
      [&](ChannelId c) { return strategies.channel_load(c); });
}

/// improving_changes over the pruned candidate set. A candidate the full
/// scan would list but this one omits was <= tolerance at the user's last
/// completed scan and is unchanged, so it would not be listed either way;
/// the surviving candidates appear in the full scan's relative order.
template <typename RateAt, typename LoadAt>
std::vector<SingleChange> improving_changes_pruned(
    const StrategyMatrix& strategies, UserId user, double tolerance,
    RateAt rate_at, double cost, bool has_spare, LoadAt load_at,
    std::span<const ChannelId> dirty, ScanBuffers& buf) {
  std::vector<SingleChange> result;
  scan_single_changes_pruned(strategies, user, rate_at, cost, has_spare,
                             load_at, dirty, buf,
                             [&](const SingleChange& candidate) {
                               if (candidate.benefit > tolerance) {
                                 result.push_back(candidate);
                               }
                             });
  return result;
}

/// Exact best response of `user` against the other users' radios under
/// `budget`: maximize sum_c f_c(x_c), f_c(x) = x * R_c(L_c + x) / (L_c + x)
/// - cost * x, with L_c the opponents' load on channel c (global or
/// neighborhood-perceived, per `load_at`), subject to sum_c x_c <= budget.
/// O(|C| * budget^2) DP over flat row-major tables, no concavity
/// assumption — an oracle over every deviation including partial
/// deployment.
template <typename RateAt, typename LoadAt>
BestResponse best_response(const StrategyMatrix& strategies, UserId user,
                           std::size_t budget, RateAt rate_at, double cost,
                           LoadAt load_at) {
  const std::size_t channels = strategies.num_channels();
  const std::size_t width = budget + 1;

  // Opponents' load per channel.
  std::vector<RadioCount> own(channels);
  strategies.copy_row(user, own);
  std::vector<RadioCount> opponent_load(channels);
  for (ChannelId c = 0; c < channels; ++c) {
    opponent_load[c] = load_at(c) - own[c];
  }

  // gain[c*width + x]: user's utility from placing x radios on channel c.
  std::vector<double> gain(channels * width, 0.0);
  for (ChannelId c = 0; c < channels; ++c) {
    double* gain_row = gain.data() + c * width;
    for (std::size_t x = 1; x <= budget; ++x) {
      const RadioCount load = opponent_load[c] + static_cast<RadioCount>(x);
      gain_row[x] = static_cast<double>(x) / static_cast<double>(load) *
                        rate_at(c, load) -
                    cost * static_cast<double>(x);
    }
  }

  // value[c*width + b]: best achievable total from channels c..end with b
  // radios. choice[c*width + b]: the optimal count placed on channel c.
  std::vector<double> value((channels + 1) * width, 0.0);
  std::vector<std::uint32_t> choice(channels * width, 0);
  for (ChannelId c = channels; c-- > 0;) {
    const double* gain_row = gain.data() + c * width;
    const double* next_row = value.data() + (c + 1) * width;
    double* value_row = value.data() + c * width;
    std::uint32_t* choice_row = choice.data() + c * width;
    for (std::size_t b = 0; b <= budget; ++b) {
      double best_value = -1e300;  // utilities go negative under a cost
      std::size_t best_x = 0;
      for (std::size_t x = 0; x <= b; ++x) {
        const double candidate = gain_row[x] + next_row[b - x];
        // Strict '>' with ascending x prefers parking surplus radios on
        // ties; utility is unaffected, and tests assert only the value.
        if (candidate > best_value) {
          best_value = candidate;
          best_x = x;
        }
      }
      value_row[b] = best_value;
      choice_row[b] = static_cast<std::uint32_t>(best_x);
    }
  }

  BestResponse response;
  response.utility = value[0 * width + budget];
  response.strategy.resize(channels, 0);
  std::size_t remaining = budget;
  for (ChannelId c = 0; c < channels; ++c) {
    const std::size_t x = choice[c * width + remaining];
    response.strategy[c] = static_cast<RadioCount>(x);
    remaining -= x;
  }
  return response;
}

template <typename RateAt>
BestResponse best_response(const StrategyMatrix& strategies, UserId user,
                           std::size_t budget, RateAt rate_at, double cost) {
  return best_response(
      strategies, user, budget, rate_at, cost,
      [&](ChannelId c) { return strategies.channel_load(c); });
}

}  // namespace detail
}  // namespace mrca
