// Tests for classification metrics (confusion matrix, P/R/F1, ROC-AUC).
#include <gtest/gtest.h>

#include "ml/metrics.hpp"

namespace {

using msa::ml::ConfusionMatrix;
using msa::ml::roc_auc;

TEST(ConfusionMatrix, CountsAndAccuracy) {
  ConfusionMatrix cm(3);
  cm.add_all({0, 0, 1, 1, 2, 2, 2}, {0, 1, 1, 1, 2, 0, 2});
  EXPECT_EQ(cm.total(), 7u);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(2, 0), 1u);
  EXPECT_NEAR(cm.accuracy(), 5.0 / 7.0, 1e-12);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  ConfusionMatrix cm(2);
  // class 1: tp=3, fp=1, fn=2.
  cm.add_all({1, 1, 1, 1, 1, 0, 0, 0}, {1, 1, 1, 0, 0, 1, 0, 0});
  EXPECT_NEAR(cm.precision(1), 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(cm.recall(1), 3.0 / 5.0, 1e-12);
  const double f1 = 2.0 * 0.75 * 0.6 / (0.75 + 0.6);
  EXPECT_NEAR(cm.f1(1), f1, 1e-12);
  EXPECT_NEAR(cm.macro_f1(), (cm.f1(0) + cm.f1(1)) / 2.0, 1e-12);
}

TEST(ConfusionMatrix, NeverPredictedClassHasZeroPrecision) {
  ConfusionMatrix cm(3);
  cm.add_all({0, 1, 2}, {0, 0, 0});
  EXPECT_EQ(cm.precision(2), 0.0);
  EXPECT_EQ(cm.recall(2), 0.0);
  EXPECT_EQ(cm.f1(2), 0.0);
}

TEST(ConfusionMatrix, RejectsOutOfRange) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), std::out_of_range);
  EXPECT_THROW(cm.add(0, -1), std::out_of_range);
}

TEST(RocAuc, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(roc_auc({0.9, 0.8, 0.2, 0.1}, {1, 1, -1, -1}), 1.0);
  EXPECT_DOUBLE_EQ(roc_auc({0.1, 0.2, 0.8, 0.9}, {1, 1, -1, -1}), 0.0);
}

TEST(RocAuc, RandomScoresGiveHalf) {
  // Identical scores -> AUC exactly 0.5 via midranks.
  EXPECT_DOUBLE_EQ(roc_auc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(RocAuc, KnownValue) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs won = (0.8>0.6)+(0.8>0.2)
  // +(0.4>0.2) = 3 of 4 -> 0.75.
  EXPECT_DOUBLE_EQ(roc_auc({0.8, 0.4, 0.6, 0.2}, {1, 1, 0, 0}), 0.75);
}

TEST(RocAuc, TiesGetMidrankCredit) {
  // pos {0.5}, neg {0.5}: tie -> 0.5.
  EXPECT_DOUBLE_EQ(roc_auc({0.5, 0.5}, {1, 0}), 0.5);
}

TEST(RocAuc, RequiresBothClasses) {
  EXPECT_THROW((void)roc_auc({0.1, 0.2}, {1, 1}), std::invalid_argument);
}

}  // namespace
