#include "cost/invoice.hpp"

#include <map>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace dc::cost {
namespace {

InvoiceLine line_from_lease(const cluster::Lease& lease, SimTime horizon,
                            double price) {
  InvoiceLine line;
  line.item = lease.tag.empty() ? "lease" : lease.tag;
  line.nodes = lease.nodes;
  line.start = lease.start;
  line.end = lease.end == kNever ? horizon : lease.end;
  line.billed_hours = billed_hours(line.end - line.start);
  line.node_hours = line.nodes * line.billed_hours;
  line.amount_usd = static_cast<double>(line.node_hours) * price;
  return line;
}

void finalize(Invoice& invoice) {
  for (const InvoiceLine& line : invoice.lines) {
    invoice.total_node_hours += line.node_hours;
    invoice.total_usd += line.amount_usd;
  }
}

}  // namespace

Invoice generate_summary_invoice(const std::string& consumer,
                                 const cluster::LeaseLedger& ledger,
                                 SimTime horizon, double price_per_node_hour) {
  // Group by the tag's base ("DR1#7" -> "DR1").
  std::map<std::string, InvoiceLine> groups;
  for (const cluster::Lease& lease : ledger.leases()) {
    const InvoiceLine line = line_from_lease(lease, horizon, price_per_node_hour);
    std::string base = line.item;
    if (const auto hash = base.find('#'); hash != std::string::npos) {
      base.resize(hash);
    }
    auto [it, inserted] = groups.try_emplace(base, line);
    if (inserted) {
      it->second.item = base + " (1 lease)";
      it->second.nodes = line.nodes;
    } else {
      InvoiceLine& merged = it->second;
      merged.nodes += line.nodes;
      merged.start = std::min(merged.start, line.start);
      merged.end = std::max(merged.end, line.end);
      merged.billed_hours += line.billed_hours;
      merged.node_hours += line.node_hours;
      merged.amount_usd += line.amount_usd;
      // Rewrite the count in the label.
      const auto paren = merged.item.find(" (");
      const std::string head = merged.item.substr(0, paren);
      auto count_text = merged.item.substr(paren + 2);
      const std::int64_t count = *parse_int(
          split_ws(count_text).front());
      merged.item = head + str_format(" (%lld leases)",
                                      static_cast<long long>(count + 1));
    }
  }
  Invoice invoice;
  invoice.consumer = consumer;
  invoice.period_end = horizon;
  invoice.price_per_node_hour = price_per_node_hour;
  for (auto& [base, line] : groups) invoice.lines.push_back(std::move(line));
  finalize(invoice);
  return invoice;
}

std::string format_invoice(const Invoice& invoice, std::size_t max_lines) {
  TextTable table({"item", "nodes", "from", "to", "node*hours", "amount $"});
  std::size_t shown = 0;
  std::int64_t folded_node_hours = 0;
  double folded_usd = 0.0;
  std::size_t folded = 0;
  for (const InvoiceLine& line : invoice.lines) {
    if (shown < max_lines) {
      table.cell(line.item)
          .cell(line.nodes)
          .cell(format_time(line.start))
          .cell(format_time(line.end))
          .cell(line.node_hours)
          .cell(line.amount_usd, 2);
      table.end_row();
      ++shown;
    } else {
      ++folded;
      folded_node_hours += line.node_hours;
      folded_usd += line.amount_usd;
    }
  }
  if (folded > 0) {
    table.cell(str_format("... %zu more line items", folded))
        .cell(std::string_view(""))
        .cell(std::string_view(""))
        .cell(std::string_view(""))
        .cell(folded_node_hours)
        .cell(folded_usd, 2);
    table.end_row();
  }
  std::string out = table.render(
      str_format("Invoice for %s — period %s to %s @ $%.2f/node*hour",
                 invoice.consumer.c_str(),
                 format_time(invoice.period_start).c_str(),
                 format_time(invoice.period_end).c_str(),
                 invoice.price_per_node_hour));
  out += str_format("TOTAL: %lld node*hours, $%.2f\n",
                    static_cast<long long>(invoice.total_node_hours),
                    invoice.total_usd);
  return out;
}

}  // namespace dc::cost
