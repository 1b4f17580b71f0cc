SELECT SUM(l.extendedprice) FROM lineitem l, orders o WHERE l.orderkey = o.orderkey AND o.orderdate < 400 GROUP BY l.shipdate;
SELECT COUNT(*) FROM lineitem l, orders o WHERE l.orderkey = o.orderkey AND o.orderdate < 400;
SELECT SUM(l.quantity) FROM lineitem l, orders o, customer c WHERE l.orderkey = o.orderkey AND o.custkey = c.custkey AND o.orderdate < 400 GROUP BY c.nationkey;
SELECT SUM(l.extendedprice) FROM lineitem l, orders o, customer c WHERE l.orderkey = o.orderkey AND o.custkey = c.custkey AND o.orderdate < 900 GROUP BY c.mktsegment;
