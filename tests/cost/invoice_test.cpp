#include "cost/invoice.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dc::cost {
namespace {

cluster::LeaseLedger sample_ledger() {
  cluster::LeaseLedger ledger;
  ledger.record(0, 2 * kHour, 40, "initial");
  ledger.record(kHour, kHour + 30 * kMinute, 10, "DR1#1");
  ledger.record(3 * kHour, 4 * kHour, 5, "DR1#2");
  ledger.record(3 * kHour, 5 * kHour, 8, "DR2#1");
  return ledger;
}

TEST(Invoice, LineItemsAndTotals) {
  const Invoice invoice =
      generate_summary_invoice("NASA", sample_ledger(), 6 * kHour, 0.10);
  ASSERT_EQ(invoice.lines.size(), 3u);
  EXPECT_EQ(invoice.lines[2].item, "initial (1 lease)");
  EXPECT_EQ(invoice.lines[2].node_hours, 80);
  EXPECT_DOUBLE_EQ(invoice.lines[2].amount_usd, 8.0);
  // DR1: the 30-minute lease rounds to 1h, so 10 + 5 node*hours.
  EXPECT_EQ(invoice.lines[0].node_hours, 15);
  EXPECT_DOUBLE_EQ(invoice.lines[0].amount_usd, 1.5);
  // Total: 80 + 10 + 5 + 16 = 111 node*hours, $11.10.
  EXPECT_EQ(invoice.total_node_hours, 111);
  EXPECT_DOUBLE_EQ(invoice.total_usd, 11.1);
}

TEST(Invoice, OpenLeaseClipsAtHorizon) {
  cluster::LeaseLedger ledger;
  ledger.open(kHour, 4, "initial");
  const Invoice invoice = generate_summary_invoice("X", ledger, 3 * kHour);
  ASSERT_EQ(invoice.lines.size(), 1u);
  EXPECT_EQ(invoice.lines[0].end, 3 * kHour);
  EXPECT_EQ(invoice.lines[0].node_hours, 8);
}

TEST(Invoice, SummaryGroupsByBaseTag) {
  const Invoice invoice =
      generate_summary_invoice("NASA", sample_ledger(), 6 * kHour, 0.10);
  ASSERT_EQ(invoice.lines.size(), 3u);  // initial, DR1, DR2
  // Groups are alphabetical (std::map): DR1, DR2, initial.
  EXPECT_EQ(invoice.lines[0].item, "DR1 (2 leases)");
  EXPECT_EQ(invoice.lines[0].node_hours, 15);
  EXPECT_EQ(invoice.lines[1].item, "DR2 (1 lease)");
  EXPECT_EQ(invoice.lines[2].item, "initial (1 lease)");
  EXPECT_EQ(invoice.total_node_hours, 111) << "grouping preserves the total";
}

TEST(Invoice, FormatFoldsExcessLines) {
  cluster::LeaseLedger ledger;
  for (int i = 0; i < 30; ++i) {
    ledger.record(i * kHour, (i + 1) * kHour, 1, "job" + std::to_string(i));
  }
  const Invoice invoice = generate_summary_invoice("drp-user", ledger, 40 * kHour);
  ASSERT_EQ(invoice.lines.size(), 30u);
  const std::string text = format_invoice(invoice, 5);
  EXPECT_NE(text.find("... 25 more line items"), std::string::npos);
  EXPECT_NE(text.find("TOTAL: 30 node*hours"), std::string::npos);
  EXPECT_NE(text.find("drp-user"), std::string::npos);
}

TEST(Invoice, EmptyLedger) {
  cluster::LeaseLedger ledger;
  const Invoice invoice = generate_summary_invoice("empty", ledger, kHour);
  EXPECT_TRUE(invoice.lines.empty());
  EXPECT_EQ(invoice.total_node_hours, 0);
  EXPECT_NE(format_invoice(invoice).find("TOTAL: 0 node*hours"),
            std::string::npos);
}

}  // namespace
}  // namespace dc::cost
