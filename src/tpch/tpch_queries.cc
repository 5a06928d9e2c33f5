#include "tpch/tpch_queries.h"

namespace orq {

const std::vector<TpchQuery>& TpchQuerySet() {
  static const auto* kQueries = new std::vector<TpchQuery>{
      {"Q1", "Pricing summary report",
       "select l_returnflag, l_linestatus, "
       "  sum(l_quantity) as sum_qty, "
       "  sum(l_extendedprice) as sum_base_price, "
       "  sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
       "  sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, "
       "  avg(l_quantity) as avg_qty, "
       "  avg(l_extendedprice) as avg_price, "
       "  avg(l_discount) as avg_disc, "
       "  count(*) as count_order "
       "from lineitem "
       "where l_shipdate <= date '1998-09-02' "
       "group by l_returnflag, l_linestatus "
       "order by l_returnflag, l_linestatus",
       "interval arithmetic pre-computed (1998-12-01 - 90 days)", false},

      {"Q2", "Minimum cost supplier",
       "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, "
       "  s_phone, s_comment "
       "from part, supplier, partsupp, nation, region "
       "where p_partkey = ps_partkey and s_suppkey = ps_suppkey "
       "  and p_size = 15 and p_type like '%BRASS' "
       "  and s_nationkey = n_nationkey and n_regionkey = r_regionkey "
       "  and r_name = 'EUROPE' "
       "  and ps_supplycost = "
       "    (select min(ps_supplycost) "
       "     from partsupp, supplier, nation, region "
       "     where p_partkey = ps_partkey and s_suppkey = ps_suppkey "
       "       and s_nationkey = n_nationkey "
       "       and n_regionkey = r_regionkey and r_name = 'EUROPE') "
       "order by s_acctbal desc, n_name, s_name, p_partkey "
       "limit 100",
       "verbatim TPC-H; correlated scalar min subquery", true},

      {"Q4", "Order priority checking",
       "select o_orderpriority, count(*) as order_count "
       "from orders "
       "where o_orderdate >= date '1993-07-01' "
       "  and o_orderdate < date '1993-10-01' "
       "  and exists (select * from lineitem "
       "              where l_orderkey = o_orderkey "
       "                and l_commitdate < l_receiptdate) "
       "group by o_orderpriority "
       "order by o_orderpriority",
       "verbatim TPC-H; EXISTS subquery", true},

      {"Q15", "Top supplier (view inlined)",
       "select s_suppkey, s_name, s_address, s_phone, total_revenue "
       "from supplier, "
       "  (select l_suppkey as supplier_no, "
       "     sum(l_extendedprice * (1 - l_discount)) as total_revenue "
       "   from lineitem "
       "   where l_shipdate >= date '1996-01-01' "
       "     and l_shipdate < date '1996-04-01' "
       "   group by l_suppkey) as revenue "
       "where s_suppkey = supplier_no "
       "  and total_revenue = "
       "    (select max(total_revenue) from "
       "       (select l_suppkey as supplier_no2, "
       "          sum(l_extendedprice * (1 - l_discount)) as total_revenue "
       "        from lineitem "
       "        where l_shipdate >= date '1996-01-01' "
       "          and l_shipdate < date '1996-04-01' "
       "        group by l_suppkey) as revenue2) "
       "order by s_suppkey",
       "CREATE VIEW replaced by inlined derived tables", true},

      {"Q16", "Parts/supplier relationship",
       "select p_brand, p_type, p_size, "
       "  count(distinct ps_suppkey) as supplier_cnt "
       "from partsupp, part "
       "where p_partkey = ps_partkey "
       "  and p_brand <> 'Brand#45' "
       "  and p_type not like 'MEDIUM POLISHED%' "
       "  and p_size in (49, 14, 23, 45, 19, 3, 36, 9) "
       "  and ps_suppkey not in "
       "    (select s_suppkey from supplier "
       "     where s_comment like '%ironic%') "
       "group by p_brand, p_type, p_size "
       "order by supplier_cnt desc, p_brand, p_type, p_size",
       "complaint-comment pattern adapted to the generator's vocabulary",
       true},

      {"Q17", "Small-quantity-order revenue",
       "select sum(l_extendedprice) / 7.0 as avg_yearly "
       "from lineitem, part "
       "where p_partkey = l_partkey "
       "  and p_brand = 'Brand#23' "
       "  and p_container = 'MED BOX' "
       "  and l_quantity < "
       "    (select 0.2 * avg(l_quantity) from lineitem l2 "
       "     where l2.l_partkey = p_partkey)",
       "verbatim TPC-H; the paper's SegmentApply showcase (section 3.4)",
       true},

      {"Q18", "Large volume customer",
       "select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
       "  sum(l_quantity) as total_qty "
       "from customer, orders, lineitem "
       "where o_orderkey in "
       "    (select l_orderkey from lineitem "
       "     group by l_orderkey having sum(l_quantity) > 250) "
       "  and c_custkey = o_custkey and o_orderkey = l_orderkey "
       "group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice "
       "order by o_totalprice desc, o_orderdate "
       "limit 100",
       "threshold 300 -> 250 (the scaled-down generator caps at 7 lines "
       "per order)", true},

      {"Q20", "Potential part promotion",
       "select s_name, s_address "
       "from supplier, nation "
       "where s_suppkey in "
       "    (select ps_suppkey from partsupp "
       "     where ps_partkey in "
       "         (select p_partkey from part where p_name like 'forest%') "
       "       and ps_availqty > "
       "         (select 0.5 * sum(l_quantity) from lineitem "
       "          where l_partkey = ps_partkey "
       "            and l_suppkey = ps_suppkey "
       "            and l_shipdate >= date '1994-01-01' "
       "            and l_shipdate < date '1995-01-01') "
       "    ) "
       "  and s_nationkey = n_nationkey and n_name = 'CANADA' "
       "order by s_name",
       "verbatim TPC-H; nested IN + correlated scalar subquery", true},

      {"Q21", "Suppliers who kept orders waiting",
       "select s_name, count(*) as numwait "
       "from supplier, lineitem l1, orders, nation "
       "where s_suppkey = l1.l_suppkey "
       "  and o_orderkey = l1.l_orderkey and o_orderstatus = 'F' "
       "  and l1.l_receiptdate > l1.l_commitdate "
       "  and exists (select * from lineitem l2 "
       "              where l2.l_orderkey = l1.l_orderkey "
       "                and l2.l_suppkey <> l1.l_suppkey) "
       "  and not exists (select * from lineitem l3 "
       "                  where l3.l_orderkey = l1.l_orderkey "
       "                    and l3.l_suppkey <> l1.l_suppkey "
       "                    and l3.l_receiptdate > l3.l_commitdate) "
       "  and s_nationkey = n_nationkey and n_name = 'SAUDI ARABIA' "
       "group by s_name "
       "order by numwait desc, s_name "
       "limit 100",
       "verbatim TPC-H; EXISTS + NOT EXISTS over multiple lineitem "
       "instances", true},

      {"Q22", "Global sales opportunity",
       "select cntrycode, count(*) as numcust, sum(c_acctbal) as totacctbal "
       "from (select c_nationkey as cntrycode, c_acctbal, c_custkey "
       "      from customer "
       "      where c_nationkey in (13, 31, 23, 29, 30, 18, 17) "
       "        and c_acctbal > "
       "          (select avg(c_acctbal) from customer c2 "
       "           where c2.c_acctbal > 0.0 "
       "             and c2.c_nationkey in (13, 31, 23, 29, 30, 18, 17)) "
       "     ) as custsale "
       "where not exists (select * from orders where o_custkey = c_custkey) "
       "group by cntrycode "
       "order by cntrycode",
       "substring(c_phone,1,2) country codes replaced by c_nationkey "
       "(our generator derives phone codes from the nation key)", true},
  };
  return *kQueries;
}

const TpchQuery* GetTpchQuery(const std::string& id) {
  for (const TpchQuery& q : TpchQuerySet()) {
    if (q.id == id) return &q;
  }
  return nullptr;
}

}  // namespace orq
